package main

import (
	"fmt"

	"pjoin/internal/store"
)

// traced runs the nominal rate twice over the same input, untraced and
// traced, and reports per-layer metrics. Span figures come from the
// traced run; the gc figures come from the untraced one, because span
// storage allocates. Their difference in CPU per tuple and median
// result latency is the tracing overhead.
func traced(w *Workload, seed uint64, seconds float64, spanPath string, rep *report) error {
	dur := seconds / 2
	n := int(w.NominalTPS * dur)
	sched, pl0, err := setUp(w, seed, w.NominalTPS, n)
	if err != nil {
		return err
	}
	want, err := reference(sched, n)
	if err != nil {
		return err
	}
	sched = nil // the runs offer the encoded input only
	var runs [2]*result
	for i, on := range []bool{false, true} {
		pl := pl0
		if on {
			if pl, err = build(w, pl0.in, true); err != nil {
				return err
			}
		}
		res := pl.run(deadline(dur))
		if res.err != nil {
			return fmt.Errorf("traced=%v run at %.0f tuples/s: %w", on, w.NominalTPS, res.err)
		}
		rep.count(res)
		checkRun(fmt.Sprintf("traced=%v", on), res, want, rep)
		runs[i] = res
	}
	u, t := runs[0], runs[1]
	pl := t.pl
	if err := writeSpans(spanPath, pl.coreRec, pl.gbRec, pl.sinkRec); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("  spans written to %s\n", spanPath)

	tc, err := totals(pl.coreRec)
	if err != nil {
		return err
	}
	tg, err := totals(pl.gbRec)
	if err != nil {
		return err
	}
	ts, err := totals(pl.sinkRec)
	if err != nil {
		return err
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	m := t.m
	tuplesIn := float64(m.TuplesIn[0] + m.TuplesIn[1])
	punctsIn := float64(m.PunctsIn[0] + m.PunctsIn[1])

	var lags []int64
	for p := 0; p < 2; p++ {
		lags = append(lags, pl.lag[p]...)
	}
	rep.add("source.lag_p99_ms", newDist(lags).ms(99), "ms", fmt.Sprintf("lateness of %d offers", len(lags)))
	rep.add("source.send_blocked_ms", ms(t.blocked), "ms", "sources inside Edge.Emit")

	qw := newDist(pl.coreW.qwait)
	rep.add("exec.queue_wait_p50_ms", qw.ms(50), "ms", fmt.Sprintf("source Emit to PJoin call, n=%d", len(qw)))
	rep.add("exec.queue_wait_p99_ms", qw.ms(99), "ms", "")
	rep.add("exec.items_per_call", ratio(float64(pl.coreW.items), float64(pl.coreW.calls)), "count",
		fmt.Sprintf("%d PJoin calls", pl.coreW.calls))
	emitNs := tc.dur[spanEmit] + tg.dur[spanEmit]
	rep.add("exec.out_blocked_ms", ms(emitNs), "ms",
		fmt.Sprintf("operators inside their output Edge.Emit, %d calls", tc.n[spanEmit]+tg.n[spanEmit]))

	coreSelf := tc.self[spanCoreTuple] + tc.self[spanCorePunct] + tc.self[spanCoreOther]
	rep.add("core.self_ms", ms(coreSelf), "ms", "PJoin calls minus emit and spill children")
	rep.add("core.self_ns_per_tuple", ratio(float64(coreSelf), tuplesIn), "ns", "")
	rep.add("core.tuple_call_ms", ms(tc.dur[spanCoreTuple]), "ms", fmt.Sprintf("%d calls ending in a tuple", tc.n[spanCoreTuple]))
	rep.add("core.punct_call_ms", ms(tc.dur[spanCorePunct]), "ms", fmt.Sprintf("%d calls ending in a punctuation", tc.n[spanCorePunct]))
	rep.add("core.state_tuples_peak", float64(pl.coreW.statePeak), "count", "StateTuples after each call")
	rep.add("core.index_scanned_per_punct", ratio(float64(m.IndexScanned), punctsIn), "ratio", "")
	rep.add("core.purge_scanned_per_purged", ratio(float64(m.PurgeScanned), float64(m.Purged)), "ratio", "")
	rep.add("core.examined_per_result", ratio(float64(m.Examined), float64(m.TuplesOut)), "ratio", "")
	rep.add("core.dropped_on_fly_share", ratio(float64(m.DroppedOnFly), tuplesIn), "ratio", "")

	rep.add("joinbase.results_per_tuple", ratio(float64(m.TuplesOut), tuplesIn), "ratio", "")
	rep.add("joinbase.disk_result_share", ratio(float64(m.DiskJoins), float64(m.TuplesOut)), "ratio", "")
	rep.add("joinbase.disk_pair_yield", ratio(float64(m.DiskJoins), float64(m.DiskExamined)), "ratio", "")
	rep.add("joinbase.disk_passes", float64(m.DiskPasses), "count", "")
	rep.add("joinbase.disk_chunks", float64(m.DiskChunks), "count", "")

	var io store.IOStats
	var cs store.CacheStats
	for _, c := range pl.caches {
		s, err := c.Stats()
		if err != nil {
			return err
		}
		io.BytesWritten += s.BytesWritten
		io.BytesRead += s.BytesRead
		h := c.CacheStats()
		cs.Hits += h.Hits
		cs.Misses += h.Misses
	}
	rep.add("store.spill_ms", ms(tc.dur[spanStore]), "ms", fmt.Sprintf("%d SpillStore and ScanCursor calls", tc.n[spanStore]))
	rep.add("store.spill_bytes_written", float64(io.BytesWritten), "bytes", "below the block cache")
	rep.add("store.spill_bytes_read", float64(io.BytesRead), "bytes", "below the block cache")
	rep.add("store.cache_hit_ratio", cs.HitRatio(), "ratio", fmt.Sprintf("%d hits, %d misses", cs.Hits, cs.Misses))
	rep.add("store.spilled_tuples", float64(m.SpilledTuples), "count", "")

	var groups int64
	if pl.gbEmit != nil {
		groups = pl.gbEmit.tuples
	}
	rep.add("op.groupby_self_ms", ms(tg.self[spanOp]), "ms", "group-by calls minus emit children")
	rep.add("op.groups_out", float64(groups), "count", "")
	rep.add("sink.self_ms", ms(ts.self[spanSink]), "ms", "the benchmark's counting sink")

	rep.add("gc.alloc_bytes_per_tuple", ratio(float64(u.gc.allocBytes), float64(u.offered)), "bytes", "untraced run")
	rep.add("gc.cpu_share", ratio(u.gc.gcCPU, u.gc.busyCPU), "ratio", "untraced run, of the CPU time the Go runtime was busy")
	rep.add("gc.cycles", float64(u.gc.cycles), "count", "untraced run")

	rep.add("trace.call_ms", ms(tc.parents+tg.parents+ts.parents), "ms", "operator goroutines' measured call time")
	cpuU := u.cpu.Seconds() / float64(u.offered)
	cpuT := t.cpu.Seconds() / float64(t.offered)
	rep.add("trace.overhead_cpu_pct", 100*(cpuT/cpuU-1), "%", fmt.Sprintf("CPU per tuple %.2f us traced vs %.2f us untraced", cpuT*1e6, cpuU*1e6))
	latU, latT := newDist(u.pl.sink.lat).ms(50), newDist(pl.sink.lat).ms(50)
	rep.add("trace.overhead_p50_pct", 100*ratio(latT-latU, latU), "%", fmt.Sprintf("result latency p50 %.3f ms traced vs %.3f ms untraced", latT, latU))
	return nil
}
