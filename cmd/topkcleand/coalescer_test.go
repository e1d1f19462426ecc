package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	topkclean "github.com/probdb/topkclean"
)

// do is get for the coalescer tests: fn's body always answers key's
// version.
func (c *coalescer) do(key coalKey, fn func() ([]byte, error)) ([]byte, error) {
	call := c.get(key, func() ([]byte, uint64, error) {
		body, err := fn()
		return body, key.version, err
	})
	return call.body, call.err
}

// TestCoalescerSignedZero: -0 and 0 compare equal as floats but encode as
// different bodies, so a 0 request overlapping a -0 call must compute its
// own body instead of sharing the -0 one.
func TestCoalescerSignedZero(t *testing.T) {
	var c coalescer
	c.inflight = make(map[coalKey]*coalCall)
	encode := func(threshold float64) func() ([]byte, error) {
		return func() ([]byte, error) { return json.Marshal(map[string]float64{"threshold": threshold}) }
	}
	negZero := math.Copysign(0, -1)
	gate := make(chan struct{})
	negDone := make(chan []byte)
	go func() {
		body, _ := c.do(coalKey{version: 1, threshold: negZero}, func() ([]byte, error) {
			<-gate // hold the -0 call open
			return encode(negZero)()
		})
		negDone <- body
	}()
	for {
		c.mu.Lock()
		n := len(c.inflight)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// At most one of the two finishes first: the 0 call computing on its
	// own, or it joining the held -0 call (which only the gate releases).
	zeroDone := make(chan []byte)
	go func() {
		body, _ := c.do(coalKey{version: 1, threshold: 0}, encode(0))
		zeroDone <- body
	}()
	var zeroBody []byte
	for zeroBody == nil && c.coalesced.Load() == 0 {
		select {
		case zeroBody = <-zeroDone:
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)
	negBody := <-negDone
	if zeroBody == nil {
		zeroBody = <-zeroDone
	}
	if string(negBody) != `{"threshold":-0}` || string(zeroBody) != `{"threshold":0}` {
		t.Fatalf("-0 and 0 shared a body: -0 got %s, 0 got %s", negBody, zeroBody)
	}
	if got := c.coalesced.Load(); got != 0 {
		t.Fatalf("0 coalesced onto the -0 call (%d coalesced)", got)
	}
}

// TestCoalescerRetention: the kept table holds at most maxKept bodies of
// the newest completed version, repeats reuse them without computing, and
// failures and bodies of another version are never kept.
func TestCoalescerRetention(t *testing.T) {
	var c coalescer
	c.inflight = make(map[coalKey]*coalCall)
	calls := 0
	body := func(s string) func() ([]byte, error) {
		return func() ([]byte, error) { calls++; return []byte(s), nil }
	}

	// Client-chosen thresholds cannot grow the table past the cap.
	for i := 0; i < 10000; i++ {
		c.do(coalKey{version: 1, threshold: float64(i) / 10000}, body("v1"))
	}
	if len(c.kept) != maxKept || calls != 10000 {
		t.Fatalf("after 10000 thresholds: %d kept (cap %d), %d computed", len(c.kept), maxKept, calls)
	}
	if len(c.inflight) != 0 {
		t.Fatalf("inflight map leaked %d entries", len(c.inflight))
	}

	// A kept key is served without computing; one past the cap computes.
	calls = 0
	if b, _ := c.do(coalKey{version: 1, threshold: 0}, body("recomputed")); string(b) != "v1" || calls != 0 {
		t.Fatalf("kept key: got %q with %d computations", b, calls)
	}
	if b, _ := c.do(coalKey{version: 1, threshold: 0.9999}, body("v1'")); string(b) != "v1'" || calls != 1 {
		t.Fatalf("key past the cap: got %q with %d computations", b, calls)
	}
	if got := c.reused.Load(); got != 1 {
		t.Fatalf("reused counter %d, want 1", got)
	}

	// A failed call is not kept: the next request computes again.
	fail := errors.New("boom")
	if _, err := c.do(coalKey{version: 2, threshold: 0.5}, func() ([]byte, error) { return nil, fail }); !errors.Is(err, fail) {
		t.Fatalf("failing call: err %v", err)
	}
	calls = 0
	if b, err := c.do(coalKey{version: 2, threshold: 0.5}, body("v2")); err != nil || string(b) != "v2" || calls != 1 {
		t.Fatalf("after a failure: got %q %v with %d computations", b, err, calls)
	}

	// The first completion at version 2 dropped every version-1 body.
	if len(c.kept) != 1 || c.keptAt != 2 {
		t.Fatalf("after a newer version: %d kept at v%d, want 1 at v2", len(c.kept), c.keptAt)
	}

	// A body answering a newer version than its key is served, not kept.
	call := c.get(coalKey{version: 2, threshold: 0.25}, func() ([]byte, uint64, error) { return []byte("v3"), 3, nil })
	if string(call.body) != "v3" || call.etag != "" {
		t.Fatalf("raced call: %q etag %q", call.body, call.etag)
	}
	if len(c.kept) != 0 || c.keptAt != 3 {
		t.Fatalf("after a raced call: %d kept at v%d, want 0 at v3", len(c.kept), c.keptAt)
	}
}

// fakeDB is a servingDB that serves a fixed answer at a settable version,
// counts answers calls, and fails the next failures of them.
type fakeDB struct {
	servingDB // unimplemented methods panic: /topk needs none of them
	ver       atomic.Uint64
	calls     atomic.Int64
	failures  atomic.Int64
}

func (f *fakeDB) version() uint64    { return f.ver.Load() }
func (f *fakeDB) threshold() float64 { return 0.1 }
func (f *fakeDB) stats(bool) statsResponse {
	return statsResponse{Version: f.ver.Load()}
}

func (f *fakeDB) answers(_ context.Context, threshold float64) (*topkclean.Result, error) {
	f.calls.Add(1)
	if f.failures.Add(-1) >= 0 {
		return nil, errors.New("transient evaluation failure")
	}
	return &topkclean.Result{K: 1, Threshold: threshold, Version: f.ver.Load(), Quality: -1,
		GlobalTopK: []topkclean.ScoredAnswer{{ID: "t1", Prob: 0.5}}}, nil
}

func fakeServer(t *testing.T) (*httptest.Server, *fakeDB) {
	t.Helper()
	s := newServer(serverConfig{})
	db := &fakeDB{}
	db.ver.Store(1)
	s.tenants[defaultDB] = makeTenant(defaultDB, db, tenantConfig{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, db
}

// getTopK fetches a /topk URL with an optional If-None-Match header.
func getTopK(t *testing.T, url, ifNoneMatch string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestTopKKeptBodies: a repeat /topk is served from the kept body without
// calling answers, and a failed evaluation is never kept.
func TestTopKKeptBodies(t *testing.T) {
	ts, db := fakeServer(t)

	db.failures.Store(1)
	if code, _, body := getTopK(t, ts.URL+"/topk", ""); code != http.StatusInternalServerError {
		t.Fatalf("failing answers: %d %s", code, body)
	}
	code, _, first := getTopK(t, ts.URL+"/topk", "")
	if code != http.StatusOK || db.calls.Load() != 2 {
		t.Fatalf("after a failure: %d with %d answers calls, want 200 with 2", code, db.calls.Load())
	}
	for i := 0; i < 5; i++ {
		_, _, again := getTopK(t, ts.URL+"/topk", "")
		if string(again) != string(first) {
			t.Fatalf("kept body differs:\n%s\n%s", again, first)
		}
	}
	if got := db.calls.Load(); got != 2 {
		t.Fatalf("repeats called answers: %d calls, want 2", got)
	}

	// A new version computes once more; /stats counts the reuses.
	db.ver.Store(2)
	getTopK(t, ts.URL+"/topk", "")
	getTopK(t, ts.URL+"/topk", "")
	if got := db.calls.Load(); got != 3 {
		t.Fatalf("after a new version: %d answers calls, want 3", got)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Reused != 6 || st.Coalesced != 0 {
		t.Fatalf("/stats: %d reused, %d coalesced, want 6 and 0", st.Reused, st.Coalesced)
	}
}

// TestTopKETag: kept bodies carry a strong ETag; a matching If-None-Match
// gets 304 with no body, a mismatching one the full body, and a new
// version a new ETag.
func TestTopKETag(t *testing.T) {
	ts, db := fakeServer(t)
	code, h, body := getTopK(t, ts.URL+"/topk", "")
	etag := h.Get("ETag")
	if code != http.StatusOK || !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) || len(etag) < 3 {
		t.Fatalf("first response: %d etag %q", code, etag)
	}
	if _, h2, body2 := getTopK(t, ts.URL+"/topk", ""); h2.Get("ETag") != etag || string(body2) != string(body) {
		t.Fatalf("kept response: etag %q body %s, want %q %s", h2.Get("ETag"), body2, etag, body)
	}
	for _, inm := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
		code, h, b := getTopK(t, ts.URL+"/topk", inm)
		if code != http.StatusNotModified || len(b) != 0 || h.Get("ETag") != etag {
			t.Fatalf("If-None-Match %s: %d etag %q body %q, want 304 with no body", inm, code, h.Get("ETag"), b)
		}
	}
	if code, _, b := getTopK(t, ts.URL+"/topk", `"stale"`); code != http.StatusOK || string(b) != string(body) {
		t.Fatalf("mismatching If-None-Match: %d %s", code, b)
	}

	// Another threshold at the same version, and the same threshold at a
	// new version, are different bodies with different ETags.
	_, h3, _ := getTopK(t, ts.URL+"/topk?threshold=0.3", "")
	db.ver.Store(2)
	code, h4, b4 := getTopK(t, ts.URL+"/topk", etag)
	if code != http.StatusOK || string(b4) == string(body) {
		t.Fatalf("new version with the old ETag: %d %s", code, b4)
	}
	if e3, e4 := h3.Get("ETag"), h4.Get("ETag"); e3 == etag || e4 == etag || e4 == "" || e3 == "" {
		t.Fatalf("ETags did not change: v1 %q, threshold 0.3 %q, v2 %q", etag, e3, e4)
	}
}

// TestTopKFreshAfterMutate: once /mutate acknowledges version v+1, the next
// /topk reports at least v+1, however often the old version's body was
// served before — on an unsharded and a 4-shard database.
func TestTopKFreshAfterMutate(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ts, _ := shardedServerStore(t, 40, 5, shards, "")
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() { // keep the coalescer busy with the same key
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if resp, err := http.Get(ts.URL + "/topk"); err == nil {
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}()
			defer func() { close(stop); wg.Wait() }()
			for i := 0; i < 20; i++ {
				var before topkResponse // twice: the second is the kept body
				getJSON(t, ts.URL+"/topk", &before)
				getJSON(t, ts.URL+"/topk", &before)
				var mut mutateResponse
				if code := postJSON(t, ts.URL+"/mutate", mutateRequest{Ops: []mutateOp{
					{Op: "insert", Name: fmt.Sprintf("m%d", i), Tuples: []tupleJSON{{ID: fmt.Sprintf("m%d.a", i), Attrs: []float64{float64(i)}, Prob: 0.5}}},
				}}, &mut); code != http.StatusOK {
					t.Fatalf("mutate %d: %d", i, code)
				}
				var after topkResponse
				getJSON(t, ts.URL+"/topk", &after)
				if after.Version < mut.Version {
					t.Fatalf("mutate acknowledged v%d, next /topk reports v%d", mut.Version, after.Version)
				}
			}
		})
	}
}
