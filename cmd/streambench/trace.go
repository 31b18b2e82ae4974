package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: a root span per
// request or operation, a child span per transport round trip (with the
// server's share of it as a grandchild), and one span per layer function
// in the solo replay. Spans of one operation share its root's ID as Root.
type span struct {
	ID, Parent, Root int64
	Name, Cat        string
	Start, End       time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured path carries no
// tracing cost beyond a nil check.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

// newID reserves an ID for a span that is recorded only when it ends, so
// the spans of its children can name it as their parent first.
func (tr *tracer) newID() int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.next++
	return tr.next
}

// add records a finished span; a zero ID is assigned a fresh one.
func (tr *tracer) add(s span) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if s.ID == 0 {
		tr.next++
		s.ID = tr.next
	}
	if s.Root == 0 {
		s.Root = s.ID
	}
	tr.spans = append(tr.spans, s)
}

// timed runs f as one span of name under parent (0 for a root).
func (tr *tracer) timed(name, cat string, parent, root int64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	tr.add(span{Parent: parent, Root: root, Name: name, Cat: cat, Start: start, End: end})
	return end.Sub(start)
}

// snapshot returns a copy of the spans recorded so far.
func (tr *tracer) snapshot() []span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

type spanCtxKey struct{}

type spanCtx struct {
	tr           *tracer
	parent, root int64
}

// withSpan makes parent the span that round trips issued under ctx hang
// from. Untraced runs attach nothing.
func withSpan(ctx context.Context, tr *tracer, parent, root int64) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{tr: tr, parent: parent, root: root})
}

func spanFrom(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(spanCtx)
	return sc, ok
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, keyed by span ID.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
		covered := time.Duration(0)
		cur := s.Start // end of the covered prefix
		for _, c := range cs {
			from, to := c.Start, c.End
			if from.Before(cur) {
				from = cur
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				cur = to
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// chromeEvent is one Chrome trace-event "complete" event (phase X).
type chromeEvent struct {
	Name  string           `json:"name"`
	Cat   string           `json:"cat"`
	Phase string           `json:"ph"`
	TS    float64          `json:"ts"`
	Dur   float64          `json:"dur"`
	PID   int              `json:"pid"`
	TID   int64            `json:"tid"`
	Args  map[string]int64 `json:"args"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON, one timeline
// row per root span, for chrome://tracing or Perfetto.
func writeChromeTrace(path string, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Phase: "X",
			TS:  float64(s.Start.Sub(t0)) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			PID: 1, TID: s.Root,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(events); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
