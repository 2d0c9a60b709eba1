// Package engine is a minimal stand-in for icpic3/internal/engine: just
// enough of Budget for the releasetrack fixtures.
package engine

type Budget struct {
	Timeout int64
	done    []<-chan struct{}
}

func (b Budget) WithDone(done <-chan struct{}) Budget {
	if done != nil {
		b.done = append(b.done[:len(b.done):len(b.done)], done)
	}
	return b
}

func (b Budget) Start() Budget { return b }
