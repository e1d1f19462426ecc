package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpStreamDigest: the seed alone determines the inputs.
func TestOpStreamDigest(t *testing.T) {
	w, err := lookupWorkload("read_write")
	if err != nil {
		t.Fatal(err)
	}
	ph := phases{warm: 0, timed: 2 * time.Second}
	a, err := generate(w, 1, ph)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(w, 1, ph)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(w, 2, ph)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("same seed, different op streams: %s vs %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 1 and 2 gave the same op stream %s", a.digest)
	}
	if n := len(a.commits); n != 200 || a.commits[n-1].version != a.baseVersion+200 {
		t.Errorf("got %d commits from base version %d, want 200 consecutive versions", n, a.baseVersion)
	}
	if a.headShare < 0.35 || a.headShare > 0.65 {
		t.Errorf("%.2f of the reweights target the scan prefix, want about half", a.headShare)
	}
}

// TestSchedulerShowsStall drives the open-loop scheduler against a stub
// that stalls once for 200 ms: the requests due during the stall must be
// charged the time they waited behind it (no coordinated omission), the
// lateness must show, and the scheduler must stay within nproc
// connections.
func TestSchedulerShowsStall(t *testing.T) {
	// The stall holds a lock every request takes, like a stop-the-world
	// pause: requests on every connection wait it out.
	var served atomic.Int64
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if served.Add(1) == 50 {
			time.Sleep(200 * time.Millisecond)
		}
		mu.Unlock()
		w.Write([]byte(`{"version":1}`))
	}))
	defer srv.Close()

	const rate = 500.0
	reads := make([]read, int(rate)) // one second
	for i := range reads {
		reads[i] = read{due: slot(i, rate), kind: kindTopK, threshold: 0.1}
	}
	lg := &loadgen{workers: runtime.NumCPU()}
	rs, _ := lg.run(time.Now().Add(10*time.Millisecond), targets{leader: srv.URL}, reads, nil, nil)

	var lat, late []time.Duration
	slow := 0
	for i := range rs {
		if rs[i].failed() {
			t.Fatalf("request %d failed: %d %s", i, rs[i].status, rs[i].err)
		}
		lat = append(lat, rs[i].latency())
		late = append(late, rs[i].late())
		if rs[i].latency() > 50*time.Millisecond {
			slow++
		}
	}
	// The ~100 requests due during the stall must carry the wait.
	if p99 := percentile(lat, 0.99); p99 < 50*time.Millisecond {
		t.Errorf("p99 latency %v hides the 200 ms stall", p99)
	}
	if slow < 10 {
		t.Errorf("only %d requests saw the stall; queued requests must be charged from their due time", slow)
	}
	if lp := percentile(late, 0.99); lp <= 0 {
		t.Errorf("late p99 %v: the scheduler must report how late it ran", lp)
	}
	if open := lg.maxOpen.Load(); open > int64(runtime.NumCPU()) {
		t.Errorf("scheduler held %d connections open, more than nproc = %d", open, runtime.NumCPU())
	}
	t.Logf("p99 %v, late p99 %v, %d slow", percentile(lat, 0.99), percentile(late, 0.99), slow)
}

// TestLadderFailuresCount: a /topk the daemon fails during the rate ladder,
// and a ladder commit acknowledged at another version than the op stream
// predicts, each fail the run; the failed step records no rate.
func TestLadderFailuresCount(t *testing.T) {
	var topk atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/mutate" {
			w.Write([]byte(`{"version":99}`))
			return
		}
		if topk.Add(1) == 20 {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"version":1}`))
	}))
	defer srv.Close()

	w, err := lookupWorkload("read_write")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{w: w, seed: 1}
	s := &stream{baseVersion: 1, commits: []commit{{due: 100 * time.Millisecond, body: []byte(`{"ops":[]}`), version: 2}}}
	r := &realResult{lastAcked: 1}
	r.runLadder(cfg, s, &loadgen{workers: runtime.NumCPU()}, targets{leader: srv.URL})
	if r.failed != 2 {
		t.Errorf("%d failures counted, want 2 (the failed /topk and the wrong ack): %q", r.failed, r.failures)
	}
	if r.ladderQPS != 0 {
		t.Errorf("the failed step recorded %.0f/s", r.ladderQPS)
	}
	if r.lastAcked != 1 {
		t.Errorf("a wrong ack moved the last acknowledged version to %d", r.lastAcked)
	}
	if r.allReads == 0 || r.allCommit != 1 {
		t.Errorf("attempted %d reads and %d commits, want the whole step", r.allReads, r.allCommit)
	}
}

// TestBenchmarkJSON: the metric tables match BENCHMARK.json.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if i < len(workloads) && (b.Workloads[i].Name != workloads[i].name || b.Workloads[i].Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %q", i, b.Workloads[i], workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, got, m)
		}
	}
}

func TestBodyVersion(t *testing.T) {
	for body, want := range map[string]uint64{`{"version":12,"k":15}`: 12, `{"version":7}`: 7} {
		if v, ok := bodyVersion([]byte(body)); !ok || v != want {
			t.Errorf("bodyVersion(%s) = %d, %v", body, v, ok)
		}
	}
	if _, ok := bodyVersion([]byte(`{"error":"x"}`)); ok {
		t.Error("bodyVersion accepted a body without a version")
	}
}
