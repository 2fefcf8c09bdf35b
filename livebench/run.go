package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/exec"
	"pjoin/internal/gen"
	"pjoin/internal/joinbase"
	"pjoin/internal/op"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// batchLinger is how long a batched edge holds a partial batch.
const batchLinger = time.Millisecond

// pipeline is one constructed plan, ready to run over its input.
type pipeline struct {
	in     *input
	p      *exec.Pipeline
	src    [2]*exec.Edge
	join   *core.PJoin
	sink   *sink
	caches []*store.CachedSpill

	// Per source item: when it was offered and how late that was.
	emitAt, lag [2][]int64

	// Traced runs only.
	coreW, gbW       *opWrap
	joinEmit, gbEmit *emitWrap
	coreRec, gbRec   *recorder
	sinkRec          *recorder
}

// build constructs the plan, its operators and spill stores for in.
func build(w *Workload, in *input, traced bool) (*pipeline, error) {
	pl := &pipeline{in: in}
	for p := 0; p < 2; p++ {
		pl.emitAt[p] = make([]int64, len(in.offers[p]))
		pl.lag[p] = make([]int64, len(in.offers[p]))
	}
	p := exec.NewPipeline()
	p.BatchSize = w.Batch
	if w.Batch > 0 {
		p.BatchLinger = batchLinger
	}
	pl.p = p
	pl.src[0], pl.src[1] = p.Edge(), p.Edge()
	joined := p.Edge()
	if traced {
		pl.coreRec, pl.sinkRec = newRecorder(), newRecorder()
	}

	cfg := core.Config{AttrA: 0, AttrB: 0}
	cfg.Thresholds.Purge = 1          // eager purge
	cfg.Thresholds.PropagateCount = 1 // propagate as soon as the state allows
	switch w.Plan {
	case "join":
		cfg.SchemaA, cfg.SchemaB = gen.SchemaA, gen.SchemaB
	case "auction":
		cfg.SchemaA, cfg.SchemaB = gen.OpenSchema, gen.BidSchema
		cfg.OutName = "Out1"
		cfg.VerifyPunctuations = true
	}
	if w.MemoryKiB > 0 {
		cfg.Thresholds.MemoryBytes = int64(w.MemoryKiB) << 10
		cfg.DiskChunkBytes = w.DiskChunkKiB << 10
	}
	if w.SpillCacheMiB > 0 {
		spills := [2]store.SpillStore{}
		for i := range spills {
			c := store.NewCachedSpill(store.NewMemSpill(), int64(w.SpillCacheMiB)<<20)
			pl.caches = append(pl.caches, c)
			spills[i] = c
			if traced {
				spills[i] = &spillWrap{inner: c, rec: pl.coreRec}
			}
		}
		cfg.SpillA, cfg.SpillB = spills[0], spills[1]
	}
	var joinOut op.Emitter = joined
	if traced {
		pl.joinEmit = &emitWrap{inner: joined, rec: pl.coreRec}
		joinOut = pl.joinEmit
	}
	join, err := core.New(cfg, joinOut)
	if err != nil {
		return nil, err
	}
	pl.join = join
	var joinOp op.Operator = join
	if traced {
		pl.coreW = &opWrap{inner: join, rec: pl.coreRec, core: true, state: join.StateTuples, emitAt: &pl.emitAt}
		joinOp = pl.coreW
	}
	if err := p.Spawn(joinOp, pl.src[0], pl.src[1]); err != nil {
		return nil, err
	}

	last, lastSchema, widthA := joined, join.OutSchema(), cfg.SchemaA.Width()
	if w.Plan == "auction" {
		grouped := p.Edge()
		var gbOut op.Emitter = grouped
		if traced {
			pl.gbRec = newRecorder()
			pl.gbEmit = &emitWrap{inner: grouped, rec: pl.gbRec}
			gbOut = pl.gbEmit
		}
		gb, err := op.NewGroupBy(join.OutSchema(), 0, join.OutSchema().MustIndexOf("bid_increase"), op.AggSum, gbOut)
		if err != nil {
			return nil, err
		}
		var gbOp op.Operator = gb
		if traced {
			pl.gbW = &opWrap{inner: gb, rec: pl.gbRec}
			gbOp = pl.gbW
		}
		if err := p.Spawn(gbOp, joined); err != nil {
			return nil, err
		}
		last, lastSchema, widthA = grouped, gb.OutSchema(), 1
	}
	pl.sink = newSink(w, in, lastSchema, widthA)
	pl.sink.rec = pl.sinkRec
	if err := p.Spawn(pl.sink, last); err != nil {
		return nil, err
	}
	return pl, nil
}

// result is one finished run.
type result struct {
	pl       *pipeline
	err      error
	timedOut bool
	offered  int   // input tuples
	done     int64 // input tuples the join consumed
	elapsed  int64 // ns from the first due item to the sink's EOS
	blocked  int64 // ns the sources spent inside Edge.Emit
	cpu      time.Duration
	heap     []uint64 // live heap every 5 ms
	gc       gcStats
	m        joinbase.Metrics
}

// run offers the input open-loop: one goroutine per port calls
// Edge.Emit at each item's due time regardless of how the pipeline
// keeps up, then EOS. deadline bounds the whole run.
func (pl *pipeline) run(deadline time.Duration) *result {
	r := &result{pl: pl, offered: pl.in.tuples}
	runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	srcCtx, stopSources := context.WithCancel(ctx)

	gc0, cpu0 := readGC(), cpuTime()
	mon := startMonitor()
	t0 := time.Now()
	pl.sink.t0 = t0
	for _, rec := range []*recorder{pl.coreRec, pl.gbRec, pl.sinkRec} {
		if rec != nil {
			rec.t0 = t0
		}
	}
	var blocked [2]int64
	var wg sync.WaitGroup
	for port := 0; port < 2; port++ {
		wg.Add(1)
		go func(port int) {
			defer wg.Done()
			blocked[port] = pl.offer(srcCtx, port, t0)
		}(port)
	}
	r.err = pl.p.Run(ctx)
	stopSources()
	wg.Wait()
	r.heap = mon.stop()
	r.cpu = cpuTime() - cpu0
	r.gc = readGC().sub(gc0)

	r.timedOut = errors.Is(ctx.Err(), context.DeadlineExceeded)
	r.blocked = blocked[0] + blocked[1]
	r.m = pl.join.Metrics()
	r.done = r.m.TuplesIn[0] + r.m.TuplesIn[1]
	if pl.sink.eosAt > 0 {
		r.elapsed = pl.sink.eosAt - leadNs
	}
	if r.err == nil && r.done != int64(r.offered) {
		r.err = fmt.Errorf("join consumed %d of %d input tuples", r.done, r.offered)
	}
	return r
}

// offer feeds one port and returns the time spent blocked in Emit.
func (pl *pipeline) offer(ctx context.Context, port int, t0 time.Time) int64 {
	e, offers := pl.src[port], pl.in.offers[port]
	emitAt, lag := pl.emitAt[port], pl.lag[port]
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var blocked int64
	for i, o := range offers {
		now := int64(time.Since(t0))
		if wait := o.due - now; wait > 0 {
			timer.Reset(time.Duration(wait))
			select {
			case <-timer.C:
			case <-ctx.Done():
				return blocked
			}
			now = int64(time.Since(t0))
		}
		it := pl.in.item(port, o)
		emitAt[i], lag[i] = now, now-o.due
		err := e.Emit(it)
		blocked += int64(time.Since(t0)) - now
		if err != nil {
			return blocked
		}
	}
	// The operator loop finishes on EOS. The edge itself stays open: exec closes
	// edges only for its own sources, so the fan-in goroutine parked on it
	// lasts until the process ends.
	_ = e.Emit(stream.EOSItem(0)) // a cancelled pipeline reports its cause from Run
	return blocked
}

// offerSecs is the time from the first due item to the last offer.
func (r *result) offerSecs() float64 {
	var last int64
	for p := 0; p < 2; p++ {
		if at := r.pl.emitAt[p]; len(at) > 0 {
			last = max(last, at[len(at)-1])
		}
	}
	return float64(last-leadNs) / 1e9
}

// lagGrows reports whether the sources fell behind for good: the median
// lateness of the last tenth of the offers exceeds the limit.
func (r *result) lagGrows(limitNs int64) bool { return r.lagTail() > float64(limitNs) }

// lagTail is the median lateness of the last tenth of the offers, in ns.
func (r *result) lagTail() float64 {
	var tail []int64
	for p := 0; p < 2; p++ {
		l := r.pl.lag[p]
		tail = append(tail, l[len(l)-len(l)/10:]...)
	}
	x, _ := newDist(tail).at(50)
	return float64(x)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcStats are runtime/metrics counters, or their deltas over a run.
type gcStats struct {
	allocBytes, cycles uint64
	gcCPU, busyCPU     float64 // seconds; busy excludes idle Ps
}

var gcSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGC() gcStats {
	s := make([]metrics.Sample, len(gcSampleNames))
	for i, n := range gcSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcStats{
		allocBytes: s[0].Value.Uint64(), cycles: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), busyCPU: s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

func (g gcStats) sub(o gcStats) gcStats {
	return gcStats{
		allocBytes: g.allocBytes - o.allocBytes, cycles: g.cycles - o.cycles,
		gcCPU: g.gcCPU - o.gcCPU, busyCPU: g.busyCPU - o.busyCPU,
	}
}

// monitor samples the live heap measured by the last GC every 5 ms
// while a run goes on.
type monitor struct {
	stopC chan struct{}
	done  chan []uint64
}

func startMonitor() *monitor {
	m := &monitor{stopC: make(chan struct{}), done: make(chan []uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var live []uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			live = append(live, s[0].Value.Uint64())
			select {
			case <-tick.C:
			case <-m.stopC:
				m.done <- live
				return
			}
		}
	}()
	return m
}

func (m *monitor) stop() []uint64 {
	close(m.stopC)
	return <-m.done
}

// windows is how many equal parts of a run the windowed figures use.
const windows = 10

// peakHeap is the median, over ten equal windows of the run, of each
// window's peak live heap: the peak a run reaches repeatedly, not the
// one sample a GC happened to catch at a backlog.
func (r *result) peakHeap() float64 {
	peaks := make([]float64, windows)
	size := max(len(r.heap)/windows, 1)
	for i, v := range r.heap {
		w := min(i/size, windows-1)
		peaks[w] = max(peaks[w], float64(v))
	}
	return median(peaks)
}
