package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops", "kind")
	c.With("read").Inc()
	c.With("read").Add(4)
	c.With("write").Inc()
	if got := c.With("read").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.With().Set(2.5)
	g.With().Add(-1)
	if got := g.With().Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "lat", []float64{0.01, 0.1, 1}, "route")
	obs := h.With("/x")
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		obs.Observe(v)
	}
	if obs.Count() != 5 {
		t.Fatalf("count = %d", obs.Count())
	}
	if math.Abs(obs.Sum()-2.565) > 1e-9 {
		t.Fatalf("sum = %v", obs.Sum())
	}
	text := r.Expose()
	// le is inclusive: 0.005 and 0.01 land in le="0.01".
	for _, want := range []string{
		`test_seconds_bucket{route="/x",le="0.01"} 2`,
		`test_seconds_bucket{route="/x",le="0.1"} 3`,
		`test_seconds_bucket{route="/x",le="1"} 4`,
		`test_seconds_bucket{route="/x",le="+Inf"} 5`,
		`test_seconds_count{route="/x"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dup_total", "")
	r.Counter("dup_total", "")
}

func TestLabelArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("label arity mismatch did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("a_total", "", "x").With("1", "2")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", "name").With("a\"b\\c\nd").Inc()
	text := r.Expose()
	want := `esc_total{name="a\"b\\c\nd"} 1`
	if !strings.Contains(text, want) {
		t.Fatalf("exposition missing %q:\n%s", want, text)
	}
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	r.Register(CollectorFunc(func() []Family {
		return []Family{{
			Name: "dyn_size", Help: "sizes", Type: "gauge",
			Samples: []Sample{
				{Labels: []Label{{Key: "stream", Value: "a"}}, Value: 7},
				{Labels: []Label{{Key: "stream", Value: "b"}}, Value: 9},
			},
		}}
	}))
	text := r.Expose()
	for _, want := range []string{
		"# TYPE dyn_size gauge",
		`dyn_size{stream="a"} 7`,
		`dyn_size{stream="b"} 9`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// metricLine matches one exposition sample: name, optional label block,
// and a float value.
var metricLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (\+Inf|-Inf|NaN|[-+0-9.eE]+)$`)

// parseExposition validates the text format line by line and returns the
// parsed samples keyed by the full series string (name + label block).
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case line == "":
			t.Fatalf("line %d: empty line in exposition", i+1)
		case strings.HasPrefix(line, "# HELP "):
			if len(strings.SplitN(line[len("# HELP "):], " ", 2)) < 1 {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", i+1, parts[1])
			}
			if prev, ok := typed[parts[0]]; ok && prev != parts[1] {
				t.Fatalf("line %d: metric %s re-typed %s -> %s", i+1, parts[0], prev, parts[1])
			}
			typed[parts[0]] = parts[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", i+1, line)
		default:
			if !metricLine.MatchString(line) {
				t.Fatalf("line %d: malformed sample line %q", i+1, line)
			}
			sp := strings.LastIndex(line, " ")
			series, valStr := line[:sp], line[sp+1:]
			var val float64
			switch valStr {
			case "+Inf":
				val = math.Inf(1)
			case "-Inf":
				val = math.Inf(-1)
			case "NaN":
				val = math.NaN()
			default:
				v, err := strconv.ParseFloat(valStr, 64)
				if err != nil {
					t.Fatalf("line %d: bad value %q: %v", i+1, valStr, err)
				}
				val = v
			}
			if _, dup := samples[series]; dup {
				t.Fatalf("line %d: duplicate series %q", i+1, series)
			}
			samples[series] = val
		}
	}
	return samples
}

func TestExpositionParsesLineByLine(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_requests_total", "requests served", "route", "code")
	c.With("GET /x", "2xx").Add(3)
	c.With("GET /x", "5xx").Inc()
	r.Gauge("app_temperature", "with \"quotes\" and \\slashes\\").With().Set(-1.25)
	h := r.Histogram("app_seconds", "latency", DefLatencyBuckets(), "route")
	h.With("GET /x").Observe(0.003)
	r.Register(CollectorFunc(func() []Family {
		return []Family{{Name: "app_dynamic", Type: "gauge",
			Samples: []Sample{{Value: math.Inf(1)}}}}
	}))

	samples := parseExposition(t, r.Expose())
	if samples[`app_requests_total{route="GET /x",code="2xx"}`] != 3 {
		t.Fatalf("samples = %v", samples)
	}
	if samples[`app_seconds_count{route="GET /x"}`] != 1 {
		t.Fatal("histogram count missing")
	}
	if !math.IsInf(samples["app_dynamic"], 1) {
		t.Fatal("collector +Inf sample missing")
	}
}

func TestHandlerAndMiddleware(t *testing.T) {
	r := NewRegistry()
	hm := NewHTTPMetrics(r, "app")
	mux := http.NewServeMux()
	mux.Handle("GET /ok", hm.Wrap("GET /ok", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})))
	mux.Handle("GET /fail", hm.Wrap("GET /fail", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	})))
	mux.Handle("GET /metrics", r.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if _, err := http.Get(ts.URL + "/ok"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := http.Get(ts.URL + "/fail"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	samples := parseExposition(t, string(raw))
	if samples[`app_http_requests_total{route="GET /ok",code="2xx"}`] != 3 {
		t.Fatalf("ok count wrong: %v", samples)
	}
	if samples[`app_http_requests_total{route="GET /fail",code="4xx"}`] != 1 {
		t.Fatalf("fail count wrong: %v", samples)
	}
	if samples[`app_http_request_seconds_count{route="GET /ok"}`] != 3 {
		t.Fatal("latency histogram not recording")
	}
	if samples["app_http_in_flight_requests"] != 0 {
		t.Fatalf("in-flight should be 0 at rest, got %v", samples["app_http_in_flight_requests"])
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "", "worker")
	h := r.Histogram("conc_seconds", "", []float64{0.5}, "worker")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w%4)
			for i := 0; i < 1000; i++ {
				c.With(label).Inc()
				h.With(label).Observe(float64(i%2) * 0.7)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			_ = r.Expose()
		}
		close(done)
	}()
	wg.Wait()
	<-done
	var total uint64
	for w := 0; w < 4; w++ {
		total += c.With(fmt.Sprintf("w%d", w)).Value()
	}
	if total != 8000 {
		t.Fatalf("lost increments: %d", total)
	}
}

// TestWriteTextWhileCreatingLabelSets renders the registry while new label
// sets are being created on every instrument kind. WriteText must not read
// a vector's live maps after releasing its lock. Run with -race.
func TestWriteTextWhileCreatingLabelSets(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("new_total", "", "id")
	g := r.Gauge("new_gauge", "", "id")
	h := r.Histogram("new_seconds", "", []float64{1}, "id")
	const perWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				c.With(id).Inc()
				g.With(id).Set(1)
				h.With(id).Observe(0.5)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for rendering := true; rendering; {
		select {
		case <-done:
			rendering = false
		default:
			_ = r.Expose()
		}
	}
	if n := strings.Count(r.Expose(), "new_total{"); n != 2*perWorker {
		t.Fatalf("rendered %d counter series, want %d", n, 2*perWorker)
	}
}
