package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"plwg/internal/ids"
)

// span is one timed call into the stack, recorded by the benchmark
// around the public entry points it drives. The spans of one message
// (gen.send, driver.wait, core.Send and one deliver per receiver) share
// the message's id; membership spans (leave, core.Join, join,
// partition, heal) and enum.Enumerate have id 0. Times are ns since the
// pass's epoch; Node is -1 for cluster-wide spans.
type span struct {
	Name  string        `json:"name"`
	ID    uint64        `json:"id,omitempty"`
	Node  ids.ProcessID `json:"node"`
	Start int64         `json:"start_ns"`
	End   int64         `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced configuration: every method is a no-op.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(name string, id uint64, node ids.ProcessID, start, end int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, ID: id, Node: node, Start: start, End: end})
	l.mu.Unlock()
}

// durations returns the durations of the named spans, in ns.
func (l *spanLog) durations(name string) []int64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCtx is what one workload pass shares with its goroutines and
// upcalls: the seed, the time base and the span log.
type runCtx struct {
	seed  int64
	epoch time.Time
	spans *spanLog // nil when untraced
}

// now returns ns since the pass's epoch (monotonic clock).
func (r *runCtx) now() int64 { return int64(time.Since(r.epoch)) }
