package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the untraced runs pay one branch per call.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (0 = root) and returns its id; end
// closes it. Both are safe from several goroutines.
func (t *tracer) begin(parent int, name string) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured interval, for phases observed by
// polling rather than bracketed by a call, and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// do runs fn inside a span named name.
func (t *tracer) do(parent int, name string, fn func(id int) error) error {
	id := t.begin(parent, name)
	defer t.end(id)
	return fn(id)
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// children returns the spans opened directly under id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

type interval struct{ lo, hi int64 }

// attribute splits root's wall time among the layers below it. A span's
// self time is its interval minus the part its children cover; where
// several self intervals overlap (concurrent calls), each gets an equal
// share of the overlap, so the layer times plus the returned gap add up
// to root's duration exactly. The gap is the part of root no child span
// covers: time the trace cannot explain.
func (t *tracer) attribute(root int) (layers map[string]time.Duration, gap time.Duration) {
	t.mu.Lock()
	all := append([]span(nil), t.spans...)
	t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range all {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	r := all[root-1]
	clip := func(s span) interval {
		return interval{max(s.Start, r.Start), min(s.End, r.End)}
	}

	type edge struct {
		at    int64
		delta int
		name  string
	}
	var edges []edge
	var walk func(s span)
	walk = func(s span) {
		var cover []interval
		for _, k := range kids[s.ID] {
			cover = append(cover, clip(k))
			walk(k)
		}
		if s.ID == root {
			return
		}
		for _, seg := range subtract(clip(s), cover) {
			edges = append(edges, edge{seg.lo, 1, s.Name}, edge{seg.hi, -1, s.Name})
		}
	}
	walk(r)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})

	layers = make(map[string]time.Duration)
	active := make(map[string]int)
	n := 0
	prev := r.Start
	for _, e := range edges {
		if dt := e.at - prev; dt > 0 {
			if n == 0 {
				gap += time.Duration(dt)
			} else {
				for name, c := range active {
					layers[name] += time.Duration(dt * int64(c) / int64(n))
				}
			}
		}
		prev = e.at
		active[e.name] += e.delta
		if active[e.name] == 0 {
			delete(active, e.name)
		}
		n += e.delta
	}
	gap += time.Duration(r.End - prev)
	return layers, gap
}

// subtract returns seg minus the union of cover, as ordered intervals.
func subtract(seg interval, cover []interval) []interval {
	sort.Slice(cover, func(i, j int) bool { return cover[i].lo < cover[j].lo })
	var out []interval
	at := seg.lo
	for _, c := range cover {
		if c.hi <= at || c.lo >= seg.hi {
			continue
		}
		if c.lo > at {
			out = append(out, interval{at, c.lo})
		}
		at = max(at, c.hi)
	}
	if at < seg.hi {
		out = append(out, interval{at, seg.hi})
	}
	return out
}
