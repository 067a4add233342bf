package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"biasedres/internal/client"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// pctl is one reported percentile: the value, the quantile actually used
// and the sample count behind it.
type pctl struct {
	Value float64 `json:"value"`
	Q     float64 `json:"q"`
	N     int     `json:"n"`
	// Capped is true when q had to be lowered (or the sample was too
	// small for any percentile) to keep minTail samples beyond it.
	Capped bool `json:"capped,omitempty"`
	// Windows is how many windows a windowed percentile took the median
	// of (0 for a whole-sample percentile).
	Windows int `json:"windows,omitempty"`
}

// percentile returns the nearest-rank q-quantile of xs, lowered to the
// highest quantile that still has minTail samples beyond it. With fewer
// than minTail+1 samples no quantile qualifies; the maximum is returned
// and flagged capped. xs is sorted in place.
func percentile(xs []float64, q float64) pctl {
	n := len(xs)
	if n == 0 {
		return pctl{Capped: true}
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	if n-k >= minTail {
		return pctl{Value: xs[k-1], Q: q, N: n}
	}
	k = n - minTail
	if k < 1 {
		return pctl{Value: xs[n-1], Q: 1, N: n, Capped: true}
	}
	return pctl{Value: xs[k-1], Q: float64(k) / float64(n), N: n, Capped: true}
}

// Windowed estimates. One stall on a shared host moves a whole-run
// percentile; the median over windows of the run does not, so latency
// percentiles and rates are reported as medians over windows.
const (
	winSamples = 1000 // samples per latency window: a p99 keeps 10 beyond it
	winStride  = 200  // latency windows slide by this many samples
)

// windowedPercentile is the median, over windows of winSamples
// consecutive samples sliding by winStride, of each window's
// q-percentile. With fewer than winSamples samples it is the plain
// percentile. xs must be in time order; it is not modified.
func windowedPercentile(xs []float64, q float64) pctl {
	n := len(xs)
	if n < winSamples {
		return percentile(append([]float64(nil), xs...), q)
	}
	var vals []float64
	buf := make([]float64, winSamples)
	capped := false
	for s := 0; s+winSamples <= n; s += winStride {
		copy(buf, xs[s:s+winSamples])
		p := percentile(buf, q)
		capped = capped || p.Capped
		vals = append(vals, p.Value)
	}
	return pctl{Value: median(vals), Q: q, N: n, Windows: len(vals), Capped: capped}
}

// windowedRate is the median over the whole 1 s windows of [0, span) of
// the weight of events per second; ts are event times in nanoseconds
// since the phase began.
func windowedRate(ts []int64, weight []float64, span time.Duration) float64 {
	return windowedRatio(ts, weight, nil, span)
}

// windowedRatio is the median over the whole 1 s windows of [0, span)
// of Σnum/Σden over the events in each window (den nil: per second).
// Windows without events are skipped.
func windowedRatio(ts []int64, num, den []float64, span time.Duration) float64 {
	n := max(int(span/time.Second), 1)
	nums, dens := make([]float64, n), make([]float64, n)
	for i, t := range ts {
		if k := int(t / int64(time.Second)); k >= 0 && k < n {
			nums[k] += num[i]
			if den == nil {
				dens[k] = min(span.Seconds(), 1)
			} else {
				dens[k] += den[i]
			}
		}
	}
	var per []float64
	for k := range nums {
		if dens[k] > 0 {
			per = append(per, nums[k]/dens[k])
		}
	}
	return median(per)
}

// ones returns n ones.
func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// median of xs (sorted in place); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// interval is a closed span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is parent's duration minus the part of it covered by the
// union of children, each clipped to the parent: overlapping children
// are counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	curS, curE := int64(0), int64(-1)
	for _, c := range clipped {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
		} else if c.end > curE {
			curE = c.end
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return (parent.end - parent.start) - covered
}

// account counts attempted and failed operations by failure kind. Every
// network operation and every correctness check is one attempt.
type account struct {
	mu        sync.Mutex
	attempted int64
	failed    map[string]int64
	details   []string // the first few failed checks, for the run record
}

// maxDetails bounds how many failed checks the run record describes.
const maxDetails = 20

// detail records a description of a failed check.
func (a *account) detail(format string, args ...any) {
	a.mu.Lock()
	if len(a.details) < maxDetails {
		a.details = append(a.details, fmt.Sprintf(format, args...))
	}
	a.mu.Unlock()
}

func newAccount() *account { return &account{failed: map[string]int64{}} }

// ok records n successful operations.
func (a *account) ok(n int) {
	a.mu.Lock()
	a.attempted += int64(n)
	a.mu.Unlock()
}

// fail records one failed operation of the given kind.
func (a *account) fail(kind string) {
	a.mu.Lock()
	a.attempted++
	a.failed[kind]++
	a.mu.Unlock()
}

// op records one operation's outcome, classifying a non-nil error.
func (a *account) op(err error) bool {
	if err == nil {
		a.ok(1)
		return true
	}
	a.fail(errKind(err))
	return false
}

// check records one correctness check under kind.
func (a *account) check(kind string, pass bool) bool {
	if pass {
		a.ok(1)
	} else {
		a.fail("check:" + kind)
	}
	return pass
}

// totals returns attempted, failed and the failure fraction.
func (a *account) totals() (attempted, failed int64, frac float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, n := range a.failed {
		failed += n
	}
	if a.attempted > 0 {
		frac = float64(failed) / float64(a.attempted)
	}
	return a.attempted, failed, frac
}

// kinds returns a copy of the per-kind failure counts.
func (a *account) kinds() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.failed))
	for k, v := range a.failed {
		out[k] = v
	}
	return out
}

// errKind classifies an operation error: HTTP 429 backpressure, other
// non-2xx replies, authoritative wire rejections, frames still NACKed
// after every retry, and transport failures.
func errKind(err error) string {
	var apiErr *client.APIError
	var wireErr *client.WireError
	var netErr net.Error
	switch {
	case errors.As(err, &apiErr) && apiErr.StatusCode == 429:
		return "http_429"
	case errors.As(err, &apiErr):
		return "http_" + strconv.Itoa(apiErr.StatusCode)
	case errors.As(err, &wireErr):
		return "wire_error"
	case strings.Contains(err.Error(), "still backpressured"):
		return "wire_nack_exhausted"
	case errors.As(err, &netErr):
		return "transport"
	}
	return "other"
}

// promSeries parses Prometheus text exposition into series → value,
// keyed by the series as written (name plus label set).
func promSeries(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// family sums every series of the named metric family.
func family(series map[string]float64, name string) float64 {
	var sum float64
	for k, v := range series {
		if k == name || (strings.HasPrefix(k, name) && k[len(name)] == '{') {
			sum += v
		}
	}
	return sum
}

// counterDelta is family(after) − family(before) for a counter; a
// counter that went backwards (a restarted process) counts from zero.
func counterDelta(before, after map[string]float64, name string) float64 {
	b, a := family(before, name), family(after, name)
	if a < b {
		return a
	}
	return a - b
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
