package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// workloadsJSON records every workload's reason, plan, offered-rate
// ladder, latency limit and tail percentile, and the layers it is meant
// to load and to bypass. The benchmark reads its settings from here, so
// the record cannot drift from what runs.
//
//go:embed workloads.json
var workloadsJSON []byte

// Workload is one entry of workloads.json.
type Workload struct {
	Name string `json:"-"`
	Why  string `json:"why"`
	// Plan is "join" (two sources -> PJoin -> sink) or "auction"
	// (Open, Bid -> PJoin -> group-by sum -> sink).
	Plan string `json:"plan"`

	// Synthetic inputs (plan "join").
	PunctMean  float64 `json:"punct_mean"`
	WindowKeys int     `json:"window_keys"`

	// Auction inputs (plan "auction"), in stream milliseconds before
	// the schedule is compressed to the offered rate.
	OpenEveryMs float64 `json:"open_every_ms"`
	AuctionMs   float64 `json:"auction_ms"`
	BidEveryMs  float64 `json:"bid_every_ms"`

	// Executor and join settings.
	Batch         int `json:"batch"` // 0: per-item edges
	MemoryKiB     int `json:"memory_kib"`
	DiskChunkKiB  int `json:"disk_chunk_kib"`
	SpillCacheMiB int `json:"spill_cache_mib"`

	// Load and its limits.
	NominalTPS     float64   `json:"nominal_tps"`
	LadderTPS      []float64 `json:"ladder_tps"`
	LatencyLimitMs float64   `json:"latency_limit_ms"`
	TailPercentile float64   `json:"tail_percentile"`
	// ResultSampleEvery keeps the latency of one in this many results,
	// chosen by the result's content so every run samples the same ones.
	ResultSampleEvery uint64 `json:"result_sample_every"`
	// workloads.json also records, for readers only, the layers each
	// workload is meant to load ("loads") and to bypass ("bypasses"),
	// and why a workload is left out of BENCHMARK.json ("gated").
}

// loadWorkloads parses and checks the embedded workload table.
func loadWorkloads() (map[string]*Workload, error) {
	var ws map[string]*Workload
	if err := json.Unmarshal(workloadsJSON, &ws); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, w := range ws {
		w.Name = name
		if err := w.check(); err != nil {
			return nil, fmt.Errorf("workloads.json: %s: %w", name, err)
		}
	}
	return ws, nil
}

func (w *Workload) check() error {
	switch w.Plan {
	case "join":
		if w.PunctMean <= 0 {
			return fmt.Errorf("punct_mean must be positive")
		}
	case "auction":
		if w.OpenEveryMs <= 0 || w.AuctionMs <= 0 || w.BidEveryMs <= 0 {
			return fmt.Errorf("open_every_ms, auction_ms and bid_every_ms must be positive")
		}
	default:
		return fmt.Errorf("unknown plan %q", w.Plan)
	}
	if w.NominalTPS <= 0 || w.LatencyLimitMs <= 0 || w.ResultSampleEvery == 0 {
		return fmt.Errorf("nominal_tps, latency_limit_ms and result_sample_every must be positive")
	}
	if w.TailPercentile <= 50 || w.TailPercentile >= 100 {
		return fmt.Errorf("tail_percentile %v outside (50, 100)", w.TailPercentile)
	}
	if len(w.LadderTPS) < 2 || w.LadderTPS[0] != w.NominalTPS {
		return fmt.Errorf("ladder_tps must start at nominal_tps and go higher")
	}
	for i := 1; i < len(w.LadderTPS); i++ {
		if w.LadderTPS[i] <= w.LadderTPS[i-1] {
			return fmt.Errorf("ladder_tps must ascend")
		}
	}
	return nil
}

func workloadNames(ws map[string]*Workload) []string {
	names := make([]string, 0, len(ws))
	for n := range ws {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
