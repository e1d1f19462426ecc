package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A span is one timed call at a layer boundary. Spans of one replayed
// request share req; parent is the enclosing span (-1 for a root).
type span struct {
	name       string
	req        int32
	parent     int32
	start, end time.Duration
}

// tracer keeps spans in memory; with on == false it records nothing, which
// is the untimed replay the tracing overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	req   int32
	spans []span
	stack []int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count      int
	total, own time.Duration // wall time, and self time (minus child spans)
}

func (l *layerTime) meanOwnMS() float64 {
	if l == nil || l.count == 0 {
		return 0
	}
	return ms(l.own) / float64(l.count)
}

// selfTimes derives per-name counts, totals and self times.
func (t *tracer) selfTimes() map[string]*layerTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		l := out[s.name]
		if l == nil {
			l = &layerTime{}
			out[s.name] = l
		}
		d := s.end - s.start
		l.count++
		l.total += d
		l.own += d - child[i]
	}
	return out
}

// decomposed is the time instance B's lower-layer calls took under its
// /topk and /quality roots, encode excluded: the work instance A's Engine
// and Cluster spans cover as one call.
func (t *tracer) decomposed() time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.parent < 0 || s.name == "topkcleand.encode" {
			continue
		}
		if p := t.spans[s.parent].name; p == "b.topk" || p == "b.quality" {
			sum += s.end - s.start
		}
	}
	return sum
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			ID     int     `json:"id"`
			Name   string  `json:"name"`
			Req    int32   `json:"req"`
			Parent int32   `json:"parent"`
			Start  float64 `json:"start_us"`
			End    float64 `json:"end_us"`
		}{i, s.name, s.req, s.parent, float64(s.start) / 1e3, float64(s.end) / 1e3}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func tracePath(cfg *config) string {
	return filepath.Join(filepath.Dir(cfg.work), "trace", fmt.Sprintf("%s.jsonl", cfg.w.name))
}
