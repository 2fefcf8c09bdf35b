package main

import (
	"math"
	"sort"
)

// windowedTail is the tail of a sample kept in arrival order: the
// median, over up to ten equal consecutive windows, of each window's
// p-th percentile, using as many windows as leave at least ten samples
// beyond the percentile in each. A few windows disturbed by something
// outside the system (another process taking the CPU) then move the
// figure less than they move the whole run's percentile. It also
// returns the window count and the samples beyond the percentile per
// window.
func windowedTail(v []int64, p float64) (ms float64, parts, beyond int) {
	parts = min(windows, int(float64(len(v))*(1-p/100)/10))
	if parts < 1 {
		x, b := newDist(v).at(p)
		return float64(x) / 1e6, 1, b
	}
	tails := make([]float64, parts)
	size := len(v) / parts
	for i := range tails {
		x, b := newDist(v[i*size : (i+1)*size]).at(p)
		tails[i] = float64(x) / 1e6
		if i == 0 || b < beyond {
			beyond = b
		}
	}
	return median(tails), parts, beyond
}

// dist is a sorted sample of durations in ns.
type dist []int64

func newDist(v []int64) dist {
	d := append(dist(nil), v...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// at returns the nearest-rank p-th percentile (0 for an empty sample)
// and how many samples lie beyond it.
func (d dist) at(p float64) (v int64, beyond int) {
	if len(d) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(p/100*float64(len(d)))) - 1
	i = min(max(i, 0), len(d)-1)
	return d[i], len(d) - 1 - i
}

func (d dist) ms(p float64) float64 {
	v, _ := d.at(p)
	return float64(v) / 1e6
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
