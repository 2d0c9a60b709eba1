package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func TestHTTPSubmitWaitAndCacheHit(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	submit := map[string]interface{}{
		"model":      safeModel,
		"engine":     "ic3",
		"timeout_ms": 30000,
		"wait_ms":    30000,
	}
	resp, body := postJSON(t, srv.URL+"/v1/jobs", submit)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal: %v (%s)", err, body)
	}
	if st.State != "done" || st.Verdict != "safe" || st.CacheHit {
		t.Fatalf("first = %+v, want fresh done/safe", st)
	}

	// resubmission: instant cache hit, no wait needed
	resp, body = postJSON(t, srv.URL+"/v1/jobs", map[string]interface{}{
		"model": safeModel, "engine": "ic3", "timeout_ms": 30000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status = %d, body %s", resp.StatusCode, body)
	}
	var hit Status
	json.Unmarshal(body, &hit)
	if !hit.CacheHit || hit.Verdict != "safe" {
		t.Fatalf("resubmit = %+v, want cache hit", hit)
	}

	// the hit is visible in /metrics
	resp, body = getBody(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	text := string(body)
	if !strings.Contains(text, "icpserve_cache_hits_total 1") {
		t.Errorf("metrics missing cache hit:\n%s", text)
	}
	if !strings.Contains(text, `icpserve_jobs_completed_total{engine="ic3",verdict="safe"} 1`) {
		t.Errorf("metrics missing completion counter:\n%s", text)
	}

	// poll the job by id
	resp, body = getBody(t, srv.URL+"/v1/jobs/"+st.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll status = %d", resp.StatusCode)
	}
	var polled Status
	json.Unmarshal(body, &polled)
	if polled.ID != st.ID || polled.Verdict != "safe" {
		t.Fatalf("polled = %+v", polled)
	}

	// list contains both jobs
	resp, body = getBody(t, srv.URL+"/v1/jobs")
	var list []Status
	json.Unmarshal(body, &list)
	if len(list) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list))
	}
}

func TestHTTPCancel(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]interface{}{
		"model": hardModel, "engine": "ic3", "timeout_ms": 3600000,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var st Status
	json.Unmarshal(body, &st)

	resp, body = postJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/cancel", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, body %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body = getBody(t, srv.URL+"/v1/jobs/"+st.ID)
		var cur Status
		json.Unmarshal(body, &cur)
		if cur.State == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// cancelling again is a conflict
	resp, _ = postJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/cancel", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel status = %d, want 409", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	resp, _ := postJSON(t, srv.URL+"/v1/jobs", map[string]interface{}{"model": "not a model"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad model status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/jobs", map[string]interface{}{"model": safeModel, "engine": "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad engine status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/jobs", map[string]interface{}{"model": safeModel, "tenant": "alice"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status = %d, want 400", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body status = %d, want 400", resp.StatusCode)
	}
	resp, _ = getBody(t, srv.URL+"/v1/jobs/j424242")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job status = %d, want 404", resp.StatusCode)
	}
	resp, _ = getBody(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

// TestHTTPGeneralizeSpellings runs the generalize field through the one
// parser icpverify's -gen also uses: every spelling is accepted, the
// widen alias and the default share core+widen's cache key, and an
// unknown mode is a 400.
func TestHTTPGeneralizeSpellings(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	keys := map[string]string{}
	for _, gen := range []string{"", "none", "core", "core+widen", "widen"} {
		resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]interface{}{
			"model": safeModel, "engine": "ic3", "generalize": gen,
			"timeout_ms": 30000, "wait_ms": 30000,
		})
		var st Status
		json.Unmarshal(body, &st)
		if resp.StatusCode != http.StatusOK || st.Verdict != "safe" {
			t.Fatalf("generalize %q: status %d, body %s", gen, resp.StatusCode, body)
		}
		keys[gen] = st.Key
	}
	if keys[""] != keys["core+widen"] || keys["widen"] != keys["core+widen"] {
		t.Errorf("default/alias keys differ from core+widen: %v", keys)
	}
	if keys["none"] == keys["core"] || keys["core"] == keys["core+widen"] {
		t.Errorf("distinct modes share a key: %v", keys)
	}
	resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]interface{}{
		"model": safeModel, "engine": "ic3", "generalize": "core+shrink",
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "generalization mode") {
		t.Errorf("unknown mode: status %d, body %s", resp.StatusCode, body)
	}
}

// TestHTTPOverloadMaps429 covers the HTTP mapping of a full queue: 429
// Too Many Requests with Retry-After: 1 and the ErrBusy message.
func TestHTTPOverloadMaps429(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// distinct keys so they cannot coalesce; the worker is busy, depth 1
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]interface{}{
			"model":  strings.Replace(hardModel, "999999", fmt.Sprintf("99999%d", i), 1),
			"engine": "ic3", "timeout_ms": 3600000,
		})
		if resp.StatusCode == http.StatusAccepted {
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submit %d: status %d, body %s", i, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Errorf("Retry-After = %q, want 1", ra)
		}
		if !strings.Contains(string(body), ErrBusy.Error()) {
			t.Errorf("429 body lacks the queue-full error: %s", body)
		}
		return
	}
	t.Fatal("queue never reported 429")
}

func TestHTTPShutdownVisibleAsUnavailable(t *testing.T) {
	s := New(Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]interface{}{"model": safeModel})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown = %d (%s), want 503", resp.StatusCode, body)
	}
}
