// Command livebench is the repository's benchmark: it drives the live
// exec pipeline open-loop from a seeded schedule, checks the outputs
// against the brute-force join, and prints end-to-end metrics (or, with
// --trace 1, per-layer metrics from a traced run) as one JSON line.
//
//	go run . --workload fanout --seed 1 --seconds 20 --trace 0
//
// Workloads, their offered-rate ladders, latency limits and tail
// percentiles are in workloads.json; run.sh builds and runs it from the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run sets up before measuring; setup_s
// is the median.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) add(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("  %-30s %14.4f %-6s %s\n", name, v, unit, note)
}

// count adds a finished run's tuples to the attempted and failed totals.
func (r *report) count(res *result) {
	r.Attempted += int64(res.offered)
	r.Failed += int64(res.offered) - res.done
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("livebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see workloads.json)")
	seed := fs.Uint64("seed", 1, "schedule seed")
	seconds := fs.Int("seconds", 20, "seconds of offered load per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spanDir := fs.String("spans", ".bench_build/spans", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws, err := loadWorkloads()
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		return 2
	}
	w, ok := ws[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "livebench: need --workload %v, --seconds >= 1, --trace 0|1\n", workloadNames(ws))
		return 2
	}
	fmt.Printf("livebench %s seed %d: %d s, GOMAXPROCS %d, nominal %.0f tuples/s, %s\n",
		w.Name, *seed, *seconds, runtime.GOMAXPROCS(0), w.NominalTPS, w.Why)
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	if *trace == 1 {
		err = traced(w, *seed, float64(*seconds), filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.tsv.gz", w.Name, *seed)), rep)
	} else {
		err = endToEnd(w, *seed, float64(*seconds), rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// setUp generates the schedule for a run of n tuples offered at rate
// and constructs the plan over it.
func setUp(w *Workload, seed uint64, rate float64, n int) (*schedule, *pipeline, error) {
	s, err := genSchedule(w, seed, n)
	if err != nil {
		return nil, nil, err
	}
	in, err := s.prefix(rate, n)
	if err != nil {
		return nil, nil, err
	}
	pl, err := build(w, in, false)
	return s, pl, err
}

// deadline bounds a nominal or traced run offering d seconds of load.
func deadline(d float64) time.Duration {
	return time.Duration((2*d + 3) * float64(time.Second))
}

// checkRun verifies a finished run and records the outcome.
func checkRun(label string, res *result, want expected, rep *report) {
	if err := verify(res.pl.sink, want); err != nil {
		rep.Correct = false
		fmt.Printf("  OUTPUT CHECK FAILED (%s): %v\n", label, err)
	}
}

// nominalShare is the part of --seconds the nominal run offers load;
// the capacity rungs take about the rest.
const nominalShare = 0.5

// rungSeconds is how long each capacity rung other than nominal offers
// load.
const rungSeconds = 2

// rungDeadline bounds a capacity rung: a backlog that takes more than
// a second to drain is past every workload's latency limit.
const rungDeadline = (rungSeconds + 1) * time.Second

// kneeStep is the capacity staircase's final step: each rung offers
// 1+kneeStep times the rate of the one before, or 1/(1+kneeStep) of it.
// It is a fifth of sustained_tps's bound.
const kneeStep = 0.05

// finalRungs is how many staircase rungs run at the final step.
const finalRungs = 6

// endToEnd measures the end-to-end metrics: the nominal run, then the
// capacity search. The search climbs the ladder from nominal while
// rungs are sustained and bisects between the last sustained rung and
// the first unsustained one until the step is down to kneeStep. It goes
// on as a staircase, up one step after a sustained rung and down one
// after an unsustained one, so the final-step rungs straddle the
// highest sustained rate. sustained_tps is their median input rate.
func endToEnd(w *Workload, seed uint64, seconds float64, rep *report) error {
	nomDur := seconds * nominalShare
	nomN := int(w.NominalTPS * nomDur)

	// Set-up: generate the schedule and construct the plan, several
	// times; the last plan is the one measured.
	var setups []float64
	var sched *schedule
	var pl *pipeline
	for i := 0; i < setupReps; i++ {
		sched, pl = nil, nil
		runtime.GC()
		t := time.Now()
		var err error
		if sched, pl, err = setUp(w, seed, w.NominalTPS, nomN); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	want, err := reference(sched, nomN)
	if err != nil {
		return err
	}
	sched = nil

	limit := int64(w.LatencyLimitMs * 1e6)
	r := pl.run(deadline(nomDur))
	if r.err != nil {
		return fmt.Errorf("nominal run at %.0f tuples/s: %w", w.NominalTPS, r.err)
	}
	if r.lagGrows(limit) {
		return fmt.Errorf("capacity guard: source lag grows at the nominal rate %.0f tuples/s (median lateness of the last tenth of offers %.1f ms); latencies would measure the backlog",
			w.NominalTPS, r.lagTail()/1e6)
	}
	rep.count(r)
	checkRun("nominal", r, want, rep)

	// A rung other than nominal has a schedule of its own, generated
	// from the same seed.
	rung := func(rate float64) (*result, bool, error) {
		res := r
		if rate != w.NominalTPS {
			n := int(rate * rungSeconds)
			s, p, err := setUp(w, seed, rate, n)
			if err != nil {
				return nil, false, err
			}
			want, err := reference(s, n)
			if err != nil {
				return nil, false, err
			}
			res = p.run(rungDeadline)
			if res.err != nil && !res.timedOut {
				return nil, false, fmt.Errorf("rung %.0f tuples/s: %w", rate, res.err)
			}
			if !res.timedOut {
				rep.count(res)
				checkRun(fmt.Sprintf("rung %.0f", rate), res, want, rep)
			}
		}
		tail, _, beyond := windowedTail(res.pl.sink.lat, w.TailPercentile)
		ok := !res.timedOut && tail <= w.LatencyLimitMs && !res.lagGrows(limit)
		verdict := "sustained"
		if !ok {
			verdict = "unsustained"
		}
		d := newDist(res.pl.sink.lat)
		fmt.Printf("  rung %6.0f tuples/s: %-11s result latency p50/90/99/99.9 %.2f/%.2f/%.2f/%.2f ms, tail p%v %.2f ms (%d beyond, limit %.0f ms), late offers p50 of last tenth %.2f ms, timed out %v\n",
			rate, verdict, d.ms(50), d.ms(90), d.ms(99), d.ms(99.9), w.TailPercentile, tail, beyond, w.LatencyLimitMs, res.lagTail()/1e6, res.timedOut)
		return res, ok, nil
	}

	// The ladder: up from nominal while sustained, doubling past its top
	// rung if that is sustained. lo is the highest sustained rate, hi
	// the lowest unsustained one.
	lo, hi := 0.0, 0.0
	for i := 0; hi == 0; i++ {
		rate := 2 * lo
		if i < len(w.LadderTPS) {
			rate = w.LadderTPS[i]
		}
		_, ok, err := rung(rate)
		if err != nil {
			return err
		}
		switch {
		case ok:
			lo = rate
		case i == 0:
			return fmt.Errorf("the nominal rate %.0f tuples/s misses the %.0f ms latency limit", w.NominalTPS, w.LatencyLimitMs)
		default:
			hi = rate
		}
	}
	minStep := math.Log1p(kneeStep)
	step := max(math.Log(hi/lo)/2, minStep)
	rate := lo * math.Exp(step)
	var inRates, perTuple []float64
	for len(inRates) < finalRungs {
		final := step <= minStep
		res, ok, err := rung(rate)
		if err != nil {
			return err
		}
		if final {
			in := res.pl.in.rate // sources cut off by the deadline
			if !res.timedOut {
				in = float64(res.offered) / res.offerSecs()
			}
			inRates = append(inRates, in)
			if !res.timedOut {
				perTuple = append(perTuple, float64(res.pl.sink.results)/float64(res.offered))
			}
		} else {
			step = max(step/2, minStep)
		}
		if ok {
			rate *= math.Exp(step)
		} else {
			rate /= math.Exp(step)
		}
	}
	tps := median(inRates)
	rep.add("sustained_tps", tps, "1/s",
		fmt.Sprintf("median of the final-step rungs' input rates %.0f", inRates))
	rep.add("sustained_results_ps", tps*median(perTuple), "1/s",
		fmt.Sprintf("sustained_tps times the median results per input tuple of %d finished final-step rungs", len(perTuple)))
	tail := func(name string, v []int64) {
		ms, parts, beyond := windowedTail(v, w.TailPercentile)
		if beyond < 10 {
			fmt.Printf("  WARNING: %s p%v has only %d samples beyond it\n", name, w.TailPercentile, beyond)
		}
		rep.add(name, ms, "ms", fmt.Sprintf("p%v, n=%d, median of %d windows with >= %d beyond", w.TailPercentile, len(v), parts, beyond))
	}
	lat, pdel := r.pl.sink.lat, r.pl.sink.pdel
	rep.add("result_latency_p50_ms", newDist(lat).ms(50), "ms", fmt.Sprintf("n=%d at %.0f tuples/s", len(lat), w.NominalTPS))
	tail("result_latency_tail_ms", lat)
	rep.add("punct_delay_p50_ms", newDist(pdel).ms(50), "ms", fmt.Sprintf("n=%d", len(pdel)))
	tail("punct_delay_tail_ms", pdel)
	rep.add("cpu_us_per_tuple", r.cpu.Seconds()*1e6/float64(r.offered), "us",
		fmt.Sprintf("%.3f s process CPU over %d tuples", r.cpu.Seconds(), r.offered))
	rep.add("peak_heap_mb", r.peakHeap()/1e6, "MB", fmt.Sprintf("live heap after GC: median of %d windows' peaks over %d samples", windows, len(r.heap)))
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d: %.4v", len(setups), setups))
	fmt.Printf("  failed %d of %d input tuples\n", rep.Failed, rep.Attempted)
	return nil
}
