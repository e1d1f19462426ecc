package main

import (
	"fmt"
	"time"
)

// A workload is one traffic mix against the daemon. Rates are requests
// (or commits) per second of the open-loop schedule.
type workload struct {
	name string
	why  string

	topkRate     float64 // /topk requests per second
	followerFrac float64 // share of /topk sent to the follower daemon
	qualityFrac  float64 // /quality at the configured k, as a share of /topk traffic
	sweepRate    float64 // /quality?k= and /plan requests per second (quality_sweep)
	commitRate   float64 // /mutate batches per second

	durable  bool // -store file backend, fsync on, checkpoint-every 256
	follower bool // a -follower daemon tails the leader's store
	shards   int  // -shards (1 = unsharded)
	ladder   bool // report topk_max_qps from a /topk rate ladder
}

// The daemon configuration every workload shares: the paper's default
// synthetic set and query shape.
const (
	xtuples          = 5000
	defaultK         = 15
	defaultThreshold = 0.1
	engineSeed       = 42
	checkpointEvery  = 256
	opsPerCommit     = 4
	churnEvery       = 16 // every 16th commit inserts one x-tuple and deletes one
	maxSweepK        = 200
	planEvery        = 10 // quality_sweep: one /plan in every ten requests
	planScProb       = 0.7
)

// topkThresholds are the PT-k thresholds read_hot draws Zipf-wise (0.05
// most often); every other workload uses them too.
var topkThresholds = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}

var workloads = []workload{
	{
		name:        "read_hot",
		why:         "memo hits and the PT-k scan only, so HTTP and JSON encode dominate; no writes, no store",
		topkRate:    2500,
		qualityFrac: 0.1,
		ladder:      true,
	},
	{
		name:         "read_write",
		why:          "head-targeted commits force watermark resume, TP, WAL fsync, checkpoints and follower replay",
		topkRate:     1200,
		followerFrac: 0.25,
		commitRate:   100,
		durable:      true,
		follower:     true,
		shards:       1,
		ladder:       true,
	},
	{
		name:       "sharded_write",
		why:        "read_write's stream against -shards 4: merge coordinator, router and meta journal",
		topkRate:   1200,
		commitRate: 100,
		durable:    true,
		shards:     4,
		ladder:     true,
	},
	{
		name:       "quality_sweep",
		why:        "k uniform in 1..200 outruns the per-k memo; deep resumes, full PSR passes and the cleaning planners",
		sweepRate:  30,
		commitRate: 10,
		durable:    true,
		shards:     1,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// phases of one run's schedule, as offsets from the schedule start.
type phases struct {
	warm  time.Duration // traffic before the timed window (not recorded)
	timed time.Duration // the measured window
	tail  time.Duration // the writer keeps committing through the rate ladder
}

// total is the main schedule's length; all includes the ladder's tail.
func (p phases) total() time.Duration { return p.warm + p.timed }
func (p phases) all() time.Duration   { return p.total() + p.tail }
