package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// submitBody is the JSON body of POST /v1/jobs.
type submitBody struct {
	Model      string  `json:"model"`
	Engine     string  `json:"engine"`
	TimeoutMS  int64   `json:"timeout_ms"`
	WaitMS     int64   `json:"wait_ms"`
	Eps        float64 `json:"eps"`
	MaxDepth   int     `json:"max_depth"`
	MaxK       int     `json:"max_k"`
	Generalize string  `json:"generalize"`
}

// Handler returns the HTTP API of the service:
//
//	POST /v1/jobs             submit a model; body {"model": "...", "engine": "ic3",
//	                          "timeout_ms": 5000, "wait_ms": 1000, ...}.
//	                          With wait_ms > 0 the response waits (up to that long)
//	                          for the verdict; 200 when final, 202 when still running.
//	GET  /v1/jobs             list all jobs
//	GET  /v1/jobs/{id}        poll one job
//	POST /v1/jobs/{id}/cancel cancel a queued or running job
//	GET  /metrics             deterministic plain-text counters and histograms
//	GET  /healthz             liveness probe
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var body submitBody
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	st, err := s.Submit(Request{
		Source:     body.Model,
		Engine:     body.Engine,
		Timeout:    time.Duration(body.TimeoutMS) * time.Millisecond,
		Eps:        body.Eps,
		MaxDepth:   body.MaxDepth,
		MaxK:       body.MaxK,
		Generalize: body.Generalize,
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrBusy):
			// A full queue is a retryable client-side condition, not a
			// server fault: 429 with a Retry-After hint.
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err)
		default:
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	if body.WaitMS > 0 && !finalState(st.State) {
		st, _ = s.Wait(st.ID, time.Duration(body.WaitMS)*time.Millisecond)
	}
	code := http.StatusAccepted
	if finalState(st.State) {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := s.Cancel(id); {
	case err == nil:
		st, jerr := s.Job(id)
		if jerr != nil {
			httpError(w, http.StatusNotFound, jerr)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case errors.Is(err, ErrNotFound):
		httpError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrFinished):
		httpError(w, http.StatusConflict, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.WriteText(w)
}

// finalState reports whether a Status.State string is terminal.
func finalState(state string) bool {
	return state == StateDone.String() || state == StateCancelled.String() || state == StateShed.String()
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
