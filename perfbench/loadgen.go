package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A sample is the outcome of one scheduled request. Times are offsets from
// the schedule start; latency is end - due, so a stall charges its wait to
// every request queued behind it (no coordinated omission).
type sample struct {
	kind     reqKind
	follower bool
	due      time.Duration
	start    time.Duration
	end      time.Duration
	status   int
	err      string
	version  uint64
	body     []byte // kept only for requests the oracle samples
}

func (s *sample) latency() time.Duration { return s.end - s.due }
func (s *sample) late() time.Duration    { return s.start - s.due }
func (s *sample) failed() bool           { return s.err != "" || s.status != http.StatusOK }

// targets are the daemons requests go to.
type targets struct {
	leader, follower string // base URLs ("http://host:port")
}

// loadgen is an open-loop scheduler: requests are due at fixed offsets
// from the schedule start and are sent by at most `workers` goroutines in
// total, each holding one keep-alive connection per daemon it talks to.
type loadgen struct {
	workers int
	maxOpen atomic.Int64 // peak simultaneously open connections
	open    atomic.Int64
}

type countedConn struct {
	net.Conn
	lg   *loadgen
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.lg.open.Add(-1) })
	return c.Conn.Close()
}

func (lg *loadgen) client() *http.Client {
	d := &net.Dialer{Timeout: 2 * time.Second}
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := d.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				for n := lg.open.Add(1); ; {
					if old := lg.maxOpen.Load(); n <= old || lg.maxOpen.CompareAndSwap(old, n) {
						break
					}
				}
				return &countedConn{Conn: c, lg: lg}, nil
			},
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// run executes the schedule from t0. keep reports whether a read's body is
// retained for the oracle. It returns the read and commit samples in
// schedule order.
//
// Every worker takes whichever item is due first: the next read, or the
// next commit when no other worker is sending one. Commits therefore go
// out one at a time and in op-stream order, and a slow commit holds up
// only the worker sending it.
func (lg *loadgen) run(t0 time.Time, tg targets, reads []read, commits []commit, keep func(i int) bool) (rs, cs []sample) {
	rs = make([]sample, len(reads))
	cs = make([]sample, len(commits))
	var mu sync.Mutex
	nextRead, nextCommit, committing := 0, 0, false
	// take claims the next item: a read index, or a commit index with
	// commit set; ok is false when this worker has nothing left to do.
	take := func() (idx int, commit, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		canCommit := nextCommit < len(commits) && !committing
		if canCommit && (nextRead == len(reads) || commits[nextCommit].due <= reads[nextRead].due) {
			committing = true
			nextCommit++
			return nextCommit - 1, true, true
		}
		if nextRead < len(reads) {
			nextRead++
			return nextRead - 1, false, true
		}
		return 0, false, false // any remaining commits follow the worker now sending one
	}
	var wg sync.WaitGroup
	for w := 0; w < lg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := lg.client()
			defer c.CloseIdleConnections()
			var buf bytes.Buffer
			for {
				i, commit, ok := take()
				if !ok {
					return
				}
				if commit {
					s := &cs[i]
					*s = sample{kind: kindMutate, due: commits[i].due}
					lg.send(c, t0, s, http.MethodPost, tg.leader+"/mutate", commits[i].body, &buf, false)
					mu.Lock()
					committing = false
					mu.Unlock()
					continue
				}
				r := &reads[i]
				s := &rs[i]
				*s = sample{kind: r.kind, follower: r.follower, due: r.due}
				base := tg.leader
				if r.follower {
					base = tg.follower
				}
				method, url, body := requestFor(r, base)
				lg.send(c, t0, s, method, url, body, &buf, keep != nil && keep(i))
			}
		}()
	}
	wg.Wait()
	return rs, cs
}

func requestFor(r *read, base string) (method, url string, body []byte) {
	switch r.kind {
	case kindTopK:
		return http.MethodGet, base + "/topk?threshold=" + strconv.FormatFloat(r.threshold, 'g', -1, 64), nil
	case kindQuality:
		return http.MethodGet, base + "/quality?k=" + strconv.Itoa(r.k), nil
	default:
		return http.MethodPost, base + "/plan",
			[]byte(fmt.Sprintf(`{"planner":%q,"budget":%d,"spec":{"scprob":%g}}`, r.planner, r.budget, planScProb))
	}
}

// send waits until the sample is due, sends, and records the outcome.
func (lg *loadgen) send(c *http.Client, t0 time.Time, s *sample, method, url string, body []byte, buf *bytes.Buffer, keep bool) {
	if wait := time.Until(t0.Add(s.due)); wait > 0 {
		time.Sleep(wait)
	}
	s.start = time.Since(t0)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		s.err = err.Error()
		s.end = time.Since(t0)
		return
	}
	resp, err := c.Do(req)
	if err != nil {
		s.err = err.Error()
		s.end = time.Since(t0)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.end = time.Since(t0)
	s.status = resp.StatusCode
	if err != nil {
		s.err = err.Error()
		return
	}
	if v, ok := bodyVersion(buf.Bytes()); ok {
		s.version = v
	} else if s.status == http.StatusOK {
		s.err = "response without a leading version field"
	}
	if keep {
		s.body = bytes.Clone(buf.Bytes())
	}
}
