package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request (or
// one ladder rung) share req; parent names the span that caused this one
// (0 = root). ops is the number of calls the interval covers, so a batch of
// calls into one layer is one span rather than a million.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Ops     int    `json:"ops"`
}

// spanLog keeps spans in memory and writes them out once, when the
// benchmark ends. A nil *spanLog records nothing, which is how untraced
// runs share the traced runs' code.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// add records one span and returns its id (0 on a nil log).
func (l *spanLog) add(parent, req int, name string, start, end time.Time, ops int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		StartNs: int64(start.Sub(l.t0)), EndNs: int64(end.Sub(l.t0)), Ops: ops})
	l.mu.Unlock()
	return id
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
