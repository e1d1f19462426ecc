// Command perfbench is the benchmark of record for topkcleand: an open-loop
// load generator that drives the real daemon over loopback and checks its
// answers byte for byte (--trace 0), and a sequential in-process replay of
// the same op stream that times each module's public entry points
// (--trace 1). See README.md in this directory.
//
// Run it through run.sh, which builds the daemon and this harness first:
//
//	bash perfbench/run.sh --workload read_write --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

type config struct {
	daemonBin, work, dir string
	w                    workload
	seed                 int64
	seconds              int
	trace                bool
	ph                   phases
}

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	var cfg config
	var wname string
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.daemonBin, "daemon", "", "topkcleand binary")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for data, stores and logs")
	fs.StringVar(&wname, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1: report the per-layer metrics of the traced replay")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := lookupWorkload(wname)
	if err != nil || cfg.daemonBin == "" || cfg.seconds < 1 || cfg.seed < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -daemon, a known --workload, --seconds >= 1 and --seed >= 0 (%v)\n", err)
		return 2
	}
	cfg.w, cfg.trace = w, trace == 1
	cfg.ph = phases{warm: warmDuration, timed: time.Duration(cfg.seconds) * time.Second}
	if w.ladder {
		cfg.ph.tail = ladderSteps * ladderStep
	}
	cfg.dir = filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-sigs
		stopAll(false)
		os.RemoveAll(cfg.dir)
		os.Exit(1)
	}()
	ctx := context.Background() //lint:allow ctxdiscipline the benchmark binary owns its lifecycle; SIGINT/SIGTERM stop it above
	out, err := run(ctx, &cfg)
	stopAll(false)
	os.RemoveAll(cfg.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(ctx context.Context, cfg *config) (*output, error) {
	w := cfg.w
	genStart := time.Now()
	s, err := generate(w, cfg.seed, cfg.ph)
	if err != nil {
		return nil, err
	}
	logf("%s seed %d: generated %d reads, %d commits in %.2fs (digest %s, head share %.2f over %d x-tuples)",
		w.name, cfg.seed, len(s.reads), len(s.commits), time.Since(genStart).Seconds(), s.digest[:16], s.headShare, s.headGroups)
	ref := &reference{ctx: ctx, s: s}

	rr, err := realRun(cfg, s, ref)
	if err != nil {
		return nil, err
	}
	e2e := rr.e2e(cfg)
	notes := map[string]any{
		"workload":         w.name,
		"seed":             cfg.seed,
		"op_stream_digest": s.digest,
		"head_share":       s.headShare,
		"oracle_checked":   rr.oracleChecked,
		"oracle_pairs":     rr.oraclePairs,
		"oracle_mismatch":  rr.oracleMismatch,
		"late_p99_ms":      ms(rr.lateP99()),
		"max_conns":        rr.maxConns,
		"failures":         rr.failures,
	}
	// correct is about the daemon's answers. A run whose scheduler fell
	// far behind offered a different load than the schedule says: its
	// latencies are flagged invalid, while the CPU it measured still covers
	// every request due in the window.
	correct := rr.oracleMismatch == 0 && rr.failed == 0
	if late := rr.lateP99(); late > lateBound {
		notes["invalid"] = fmt.Sprintf("scheduler ran %.1f ms late at p99 (bound %s): latencies do not describe the schedule", ms(late), lateBound)
	}
	out := &output{Correct: correct, Attempted: rr.allReads + rr.allCommit, Failed: rr.failed, Metrics: map[string]metricValue{}}

	if cfg.trace {
		layers, ok, err := traceMetrics(ctx, cfg, s, rr, e2e)
		if err != nil {
			return nil, err
		}
		if !ok {
			out.Correct = false
		}
		for _, m := range perLayerMetrics {
			out.Metrics[m.name] = metricValue{Value: layers[m.name], Unit: m.unit}
		}
		report("per_layer", notes, layers)
	} else {
		for _, m := range endToEndMetrics {
			v, ok := e2e[m.name]
			if !ok {
				return nil, fmt.Errorf("workload %s did not measure %s", w.name, m.name)
			}
			out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	report("end_to_end", notes, e2e)
	return out, nil
}

// report prints one detail line (a JSON object) ahead of the result line.
func report(kind string, notes map[string]any, metrics map[string]float64) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	ordered := make([][2]any, len(names))
	for i, n := range names {
		ordered[i] = [2]any{n, metrics[n]}
	}
	line, _ := json.Marshal(map[string]any{"report": kind, "notes": notes, "metrics": ordered})
	fmt.Println(string(line))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
