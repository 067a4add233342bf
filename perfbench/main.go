// Command perfbench is the repository's end-to-end benchmark. It
// assembles the reservoird daemon in-process from the constructors
// cmd/reservoird uses, serves it on loopback TCP/HTTP, drives one
// workload through internal/client with inputs drawn from -seed, checks
// the answers, and prints one JSON result line. See README.md.
//
//	bash perfbench/run.sh --workload query_mix_http --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (BENCHMARK.json end_to_end).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_pts_per_s", "pts/s"},
	{"ingest_ack_p50_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"query_per_s", "q/s"},
	{"query_p50_ms", "ms"},
	{"heap_live_mb", "MiB"},
}

// endToEndTails are end-to-end p99 latencies. Every run measures them
// and its record carries them, but on a shared virtual machine their
// run-to-run spread is wider than any bound a gate could use, so they
// are reported with the per-layer metrics, from the traced run's
// untraced pass, and gate nothing.
var endToEndTails = []metricDef{
	{"ingest_ack_p99_ms", "ms"},
	{"visible_p99_ms", "ms"},
	{"query_p99_ms", "ms"},
}

// perLayer are the metrics of a traced run (BENCHMARK.json per_layer).
var perLayer = func() []metricDef {
	d := append([]metricDef(nil), endToEndTails...)
	d = append(d, []metricDef{
		{"client.push_ns_per_pt", "ns/pt"},
		{"wire.transport_self_ns_p50", "ns"},
		{"wire.transport_self_ns_p99", "ns"},
		{"wire.encode_ns_per_pt", "ns/pt"},
		{"wire.decode_ns_per_pt", "ns/pt"},
		{"wire.bytes_per_pt", "B/pt"},
		{"wire.nack_frac", "ratio"},
		{"server.ingest_frame_ns_p50", "ns"},
		{"server.ingest_frame_ns_p99", "ns"},
		{"server.ingest_frame_self_ns_p50", "ns"},
		{"server.ingest_http_ns_p50", "ns"},
		{"server.ingest_http_ns_p99", "ns"},
	}...)
	for _, r := range queryRoutes {
		d = append(d, metricDef{"server.query_ns_p50." + routeNames[r], "ns"})
	}
	d = append(d,
		metricDef{"server.query_ns_p99", "ns"},
		metricDef{"server.pending_pts_max", "pts"},
		metricDef{"server.reject_frac", "ratio"})
	for _, k := range samplerKinds {
		d = append(d, metricDef{"core.apply_ns_per_pt." + k, "ns/pt"})
	}
	for _, k := range []string{"variable", "rtbs", "tiered"} {
		d = append(d, metricDef{"core.snapshot_rebuild_ns." + k, "ns"})
	}
	d = append(d,
		metricDef{"core.snapshot_hit_frac", "ratio"},
		metricDef{"core.rebuilds_per_query", "ratio"},
		metricDef{"durable.journal_write_ns_p50", "ns"},
		metricDef{"durable.journal_write_ns_p99", "ns"},
		metricDef{"durable.journal_bytes_per_pt", "B/pt"},
		metricDef{"durable.journal_sync_ns_p50", "ns"},
		metricDef{"durable.journal_sync_ns_p99", "ns"},
		metricDef{"durable.syncs", "count"},
		metricDef{"durable.checkpoint_ns_max", "ns"},
		metricDef{"durable.checkpoint_bytes", "B"},
		metricDef{"durable.checkpoints", "count"},
		metricDef{"durable.recover_ns", "ns"})
	for _, r := range queryRoutes {
		d = append(d, metricDef{"query.kernel_ns_per_pt." + routeNames[r], "ns/pt"})
	}
	d = append(d,
		metricDef{"federation.ingest_frame_self_ns_p50", "ns"},
		metricDef{"federation.ingest_frame_self_ns_p99", "ns"},
		metricDef{"federation.replica_writes_per_frame", "ratio"},
		metricDef{"federation.query_self_ns_p50", "ns"},
		metricDef{"federation.query_self_ns_p99", "ns"},
		metricDef{"federation.peer_accum_ns_p50", "ns"},
		metricDef{"federation.peer_accum_ns_p99", "ns"},
		metricDef{"federation.hedge_frac", "ratio"},
		metricDef{"obs.scrape_ns_p50", "ns"},
		metricDef{"obs.scrape_ns_p99", "ns"},
		metricDef{"obs.scrape_bytes", "B"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.alloc_bytes_per_op", "B/op"},
		metricDef{"runtime.gc_pause_p99_ns", "ns"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"failed_frac", "ratio"})
	return d
}()

// report collects one run's metrics, percentile details and notes.
type report struct {
	values      map[string]float64
	pcts        map[string]pctl
	counts      map[string]int
	notes       []string
	inputDigest string
}

func newReport() *report {
	return &report{values: map[string]float64{}, pcts: map[string]pctl{}, counts: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// pct reports a percentile of samples under name, keeping its details.
func (r *report) pct(name string, samples []float64, q float64, scale float64) {
	p := percentile(samples, q)
	p.Value *= scale
	r.pcts[name] = p
	r.values[name] = p.Value
}

// winPct reports a windowed percentile (see windowedPercentile) of
// time-ordered samples; end-to-end latencies use it.
func (r *report) winPct(name string, samples []float64, q float64) {
	p := windowedPercentile(samples, q)
	r.pcts[name] = p
	r.values[name] = p.Value
}

// run is the state one workload run shares with its workload.
type run struct {
	workload string
	seed     uint64
	seconds  int
	out      string
	acct     *account
	rep      *report
	tr       *tracer // nil when untraced
}

// workload is one traffic mix.
type workload interface {
	// generate draws every input from the seed; it runs before any
	// set-up is timed and returns the inputs' digest.
	generate(seed uint64, seconds int) string
	// up builds, serves and preloads the system; tr is nil untraced.
	up(r *run, tr *tracer) error
	// measure runs the measured phase and records its samples.
	measure(r *run, d time.Duration)
	// finish runs the post-phase correctness checks, then stops the
	// system.
	finish(r *run)
	// down stops the system without checks (discarded set-ups).
	down()
	// layers derives the per-layer metrics of a traced measured phase.
	layers(r *run)
	// primary is the end-to-end metric trace overhead is judged on.
	primary() string
	// streamNames lists the stream names spans are keyed by.
	streamNames() []string
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ingest_wire_durable":
		return &ingestWL{}, nil
	case "query_mix_http":
		return &queryWL{}, nil
	case "federated_replicated":
		return &fedWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest_wire_durable, query_mix_http or federated_replicated)", name)
}

// setupRepeats is how many times an untraced run sets the system up;
// setup_s is their median.
const setupRepeats = 9

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "seed every input is drawn from")
		seconds = flag.Int("seconds", 10, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for temp data, traces and run records")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds int, traced bool, out string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be ≥ 1")
	}
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	out, err = filepath.Abs(out)
	if err != nil {
		return err
	}
	r := &run{workload: name, seed: seed, seconds: seconds, out: out, acct: newAccount(), rep: newReport()}
	r.rep.inputDigest = w.generate(seed, seconds)
	d := time.Duration(seconds) * time.Second
	wallStart := time.Now()

	if !traced {
		var setups []float64
		for i := 0; i < setupRepeats; i++ {
			t0 := time.Now()
			if err := w.up(r, nil); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			if i < setupRepeats-1 {
				w.down()
			}
		}
		r.rep.counts["setup_s"] = len(setups)
		r.rep.set("setup_s", median(setups))
		w.measure(r, d)
		r.rep.set("heap_live_mb", liveHeapMB())
		w.finish(r)
	} else {
		// The untraced pass on the same seed is the baseline for the
		// tracing overhead; its checks still count.
		base := &run{workload: name, seed: seed, seconds: seconds, out: out, acct: r.acct, rep: newReport()}
		if err := w.up(base, nil); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		w.measure(base, d)
		w.finish(base)

		r.tr = newTracer(w.streamNames())
		if err := w.up(r, r.tr); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rt0 := readRuntime()
		w.measure(r, d)
		rt1 := readRuntime()
		w.finish(r)
		w.layers(r)
		runtimeLayers(r, rt0, rt1)
		untraced, tracedV := base.rep.values[w.primary()], r.rep.values[w.primary()]
		r.rep.set("trace.overhead_frac", ratio(untraced-tracedV, untraced))
		for _, m := range endToEndTails {
			r.rep.set(m.name, base.rep.values[m.name])
		}
	}
	attempted, failed, frac := r.acct.totals()
	r.rep.set("failed_frac", frac)

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metricsOut := map[string]any{}
	for _, m := range defs {
		metricsOut[m.name] = map[string]any{"value": finite(r.rep.values[m.name]), "unit": m.unit}
	}
	rec := record(r, traced, time.Since(wallStart))
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	recPath := filepath.Join(out, "records", fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, b2i(traced)))
	if err := os.MkdirAll(filepath.Dir(recPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(recPath, append(recJSON, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("record %s\n", recJSON)
	res, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metricsOut,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// finite maps ±Inf (a failed operation's latency) to a large finite
// number JSON can carry.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return 1e12
	case math.IsInf(v, -1):
		return -1e12
	}
	return v
}

// liveHeapMB reads the live heap after two forced GCs: the first moves
// sync.Pool contents to the pools' victim caches, the second frees them,
// so pooled buffers, whose amount depends on timing, are not counted.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runtimeSnap is a read of the runtime counters the runtime.* layer
// metrics are deltas of.
type runtimeSnap struct {
	gcCPU, totalCPU float64
	allocs          uint64
	pauses          *metrics.Float64Histogram
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	snap := runtimeSnap{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocs: s[2].Value.Uint64()}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		snap.pauses = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return snap
}

// runtimeLayers fills the runtime.* metrics from two reads around the
// measured phase. Operations are the frames, batches and queries the
// benchmark completed in it.
func runtimeLayers(r *run, a, b runtimeSnap) {
	r.rep.set("runtime.gc_cpu_frac", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU))
	r.rep.set("runtime.alloc_bytes_per_op", ratio(float64(b.allocs-a.allocs), float64(r.rep.counts["ops"])))
	if a.pauses == nil || b.pauses == nil {
		return
	}
	// Expand the histogram delta into bucket upper bounds so the
	// percentile rule applies unchanged.
	var xs []float64
	for i := range b.pauses.Counts {
		n := b.pauses.Counts[i] - a.pauses.Counts[i]
		ub := b.pauses.Buckets[i+1]
		if math.IsInf(ub, 1) {
			ub = b.pauses.Buckets[i]
		}
		for j := uint64(0); j < n; j++ {
			xs = append(xs, ub)
		}
	}
	r.rep.pct("runtime.gc_pause_p99_ns", xs, 0.99, 1e9)
}

// record is the provenance and sample-count record of one run.
func record(r *run, traced bool, wall time.Duration) map[string]any {
	attempted, failed, frac := r.acct.totals()
	pcts := map[string]pctl{}
	for k, v := range r.rep.pcts {
		v.Value = finite(v.Value)
		pcts[k] = v
	}
	sort.Strings(r.rep.notes)
	return map[string]any{
		"workload":        r.workload,
		"seed":            r.seed,
		"seconds":         r.seconds,
		"trace":           traced,
		"commit":          commitOf(),
		"source_digest":   sourceDigest(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"cpu_model":       cpuModel(),
		"input_digest":    r.rep.inputDigest,
		"attempted":       attempted,
		"failed":          failed,
		"failed_frac":     frac,
		"failures":        r.acct.kinds(),
		"failure_details": r.acct.details,
		"percentiles":     pcts,
		"sample_counts":   r.rep.counts,
		"notes":           r.rep.notes,
		"wall_s":          strconv.FormatFloat(wall.Seconds(), 'f', 3, 64),
	}
}
