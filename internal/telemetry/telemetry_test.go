package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestSeriesRing: fixed capacity, oldest-first eviction, order kept.
func TestSeriesRing(t *testing.T) {
	s := newSeries("m", nil, "gauge", 4)
	for i := 0; i < 10; i++ {
		s.Append(Point{T: int64(i)})
	}
	if s.Len() != 4 || s.Dropped != 6 {
		t.Fatalf("len=%d dropped=%d, want 4/6", s.Len(), s.Dropped)
	}
	pts := s.Points()
	for i, pt := range pts {
		if pt.T != int64(6+i) {
			t.Errorf("pts[%d].T = %d, want %d", i, pt.T, 6+i)
		}
	}
	if last, ok := s.Last(); !ok || last.T != 9 {
		t.Errorf("Last = %+v/%v", last, ok)
	}
}

// TestPipelineSampling: attached to a kernel, the pipeline samples
// every interval of virtual time and derives per-kind fields — gauge
// value and interval delta, histogram interval quantiles.
func TestPipelineSampling(t *testing.T) {
	reg := trace.NewRegistry()
	k := sim.NewKernel()
	var ops uint64
	reg.GaugeFunc("ops", func() float64 { return float64(ops) })
	var depth float64
	reg.GaugeFunc("depth", func() float64 { return depth })
	lat := reg.Histogram("lat").Hist()

	p := NewPipeline(reg, Config{IntervalNs: 100, Capacity: 64})
	p.Attach(k)
	k.Spawn("worker", func(pr *sim.Proc) {
		for i := 0; i < 10; i++ {
			pr.Sleep(50) // two ops per 100ns tick
			ops++
			depth += 1
			lat.AddNs(int64(1000 * (i + 1)))
		}
	})
	k.RunAll()

	if got := p.Samples(); got != 5 {
		t.Fatalf("samples = %d, want 5 (500ns of work / 100ns interval)", got)
	}
	series := p.Series()
	if len(series) != 3 {
		t.Fatalf("series count = %d, want 3", len(series))
	}
	byName := map[string]*Series{}
	for _, s := range series {
		byName[s.Name] = s
	}

	// Ticks fire before same-time events, so the sample at t=100 sees
	// only the op completed at t=50: delta 1, then deltas 2,2,2,2.
	opsPts := byName["ops"].Points()
	wantD := []float64{1, 2, 2, 2, 2}
	var cum float64
	for i, pt := range opsPts {
		cum += wantD[i]
		if pt.D != wantD[i] || pt.V != cum {
			t.Errorf("ops[%d] = {V:%g D:%g}, want {V:%g D:%g}", i, pt.V, pt.D, cum, wantD[i])
		}
		if pt.T != int64(100*(i+1)) {
			t.Errorf("ops[%d].T = %d, want %d", i, pt.T, 100*(i+1))
		}
	}

	if pts := byName["depth"].Points(); pts[4].V != 9 {
		t.Errorf("depth last = %g, want 9 (9 ops done before tick at t=500)", pts[4].V)
	}

	latPts := byName["lat"].Points()
	if latPts[0].N != 1 || latPts[1].N != 2 {
		t.Fatalf("lat interval counts = %d,%d, want 1,2", latPts[0].N, latPts[1].N)
	}
	// Second interval observed 2000 and 3000: interval p99 must be near
	// 3000 and far from the cumulative tail.
	if rel := (latPts[1].P99 - 3000) / 3000; math.Abs(rel) > 0.05 {
		t.Errorf("lat[1].P99 = %g, want ~3000 (interval, not cumulative)", latPts[1].P99)
	}
	if latPts[1].V < 2000 || latPts[1].V > 3000 {
		t.Errorf("lat[1] interval mean = %g, want in (2000,3000)", latPts[1].V)
	}
}

// TestJain: textbook values.
func TestJain(t *testing.T) {
	if got := Jain([]float64{5, 5, 5, 5}); got != 1 {
		t.Errorf("equal shares: %g, want 1", got)
	}
	if got := Jain([]float64{1, 0, 0, 0}); got != 0.25 {
		t.Errorf("one-takes-all: %g, want 0.25", got)
	}
	if got := Jain(nil); got != 0 {
		t.Errorf("empty: %g, want 0", got)
	}
	if got := Jain([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero: %g, want 0", got)
	}
}

// TestFairnessReport: per-host share, Jain index, and p99 spread are
// derived from the well-known host.* series.
func TestFairnessReport(t *testing.T) {
	reg := trace.NewRegistry()
	k := sim.NewKernel()
	p := NewPipeline(reg, Config{IntervalNs: 100, Capacity: 64})
	p.Attach(k)
	for h := 0; h < 2; h++ {
		h := h
		ios := new(uint64)
		reg.GaugeFunc(MetricHostIOs, func() float64 { return float64(*ios) }, trace.L("host", h))
		lat := reg.Histogram(MetricHostLatency, trace.L("host", h)).Hist()
		k.Spawn("host", func(pr *sim.Proc) {
			// host 0: 30 IOs at ~1µs; host 1: 10 IOs at ~4µs.
			n, latNs := 30, int64(1000)
			if h == 1 {
				n, latNs = 10, 4000
			}
			for i := 0; i < n; i++ {
				pr.Sleep(10)
				*ios++
				lat.AddNs(latNs)
			}
		})
	}
	k.RunAll()
	p.Sample(k.Now()) // flush the tail below one interval

	rep := p.Fairness(0)
	if len(rep.Hosts) != 2 {
		t.Fatalf("hosts = %d, want 2", len(rep.Hosts))
	}
	if rep.Hosts[0].Host != "0" || rep.Hosts[0].IOs != 30 {
		t.Errorf("host0 = %+v, want 30 IOs", rep.Hosts[0])
	}
	if rep.Hosts[1].IOs != 10 {
		t.Errorf("host1 = %+v, want 10 IOs", rep.Hosts[1])
	}
	if math.Abs(rep.Hosts[0].Share-0.75) > 1e-9 {
		t.Errorf("host0 share = %g, want 0.75", rep.Hosts[0].Share)
	}
	// Jain((30,10)) = 40^2 / (2*(900+100)) = 0.8
	if math.Abs(rep.JainIndex-0.8) > 1e-9 {
		t.Errorf("jain = %g, want 0.8", rep.JainIndex)
	}
	if rep.P99SpreadNs <= 0 {
		t.Errorf("p99 spread = %g, want > 0 (4µs vs 1µs hosts)", rep.P99SpreadNs)
	}
	tbl := rep.Table()
	for _, want := range []string{"host", "share", "jain=0.8000", "p99_spread="} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// runSampled builds a small deterministic scenario and returns the
// pipeline after the run.
func runSampled() *Pipeline {
	reg := trace.NewRegistry()
	k := sim.NewKernel()
	p := NewPipeline(reg, Config{IntervalNs: 100, Capacity: 32})
	p.Attach(k)
	var ops uint64
	reg.GaugeFunc("ops", func() float64 { return float64(ops) }, trace.L("host", 0))
	h := reg.Histogram("lat", trace.L("host", 0)).Hist()
	k.Spawn("w", func(pr *sim.Proc) {
		for i := 0; i < 20; i++ {
			pr.Sleep(37)
			ops++
			h.AddNs(int64(100 + i))
		}
	})
	k.RunAll()
	p.Sample(k.Now())
	return p
}

// TestDumpDeterminism: identical runs marshal to identical bytes — the
// property the CI telemetry smoke test relies on.
func TestDumpDeterminism(t *testing.T) {
	a, err := runSampled().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSampled().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed telemetry JSON differs:\n%s\n---\n%s", a, b)
	}
	var d Dump
	if err := json.Unmarshal(a, &d); err != nil {
		t.Fatalf("dump not valid JSON: %v", err)
	}
	if d.Schema != DumpSchema || d.IntervalNs != 100 || len(d.Series) != 2 {
		t.Errorf("dump = schema %q interval %d series %d", d.Schema, d.IntervalNs, len(d.Series))
	}
}

// TestPromFormat: sanitised names, # TYPE grouping, labeled samples,
// summary quantiles for histograms.
func TestPromFormat(t *testing.T) {
	p := runSampled()
	var sb strings.Builder
	p.WriteProm(&sb)
	text := sb.String()
	for _, want := range []string{
		"# TYPE ops gauge",
		`ops{host="0"} 20`,
		"# TYPE lat summary",
		`lat{host="0",quantile="0.99"} `,
		`lat_count{host="0"} 20`,
		`lat_sum{host="0"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, ".") && strings.Contains(strings.SplitN(text, "\n", 2)[0], ".") {
		t.Errorf("metric name with dot leaked into prom output")
	}
	if got := promName("nvme.queue-depth.p99"); got != "nvme_queue_depth_p99" {
		t.Errorf("promName = %q", got)
	}
}

// TestServerEndpoints: the live endpoints serve while a simulation is
// actively running and sampling — under -race this proves the
// pipeline-lock posture (handlers read sampled state only).
func TestServerEndpoints(t *testing.T) {
	reg := trace.NewRegistry()
	k := sim.NewKernel()
	p := NewPipeline(reg, Config{IntervalNs: 50, Capacity: 128})
	p.Attach(k)
	var ops uint64
	reg.GaugeFunc("ops", func() float64 { return float64(ops) }, trace.L("host", 1))
	lat := reg.Histogram(MetricHostLatency, trace.L("host", 1)).Hist()
	srv := httptest.NewServer(NewHandler(p))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return 0, ""
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz before sampling = %d, want 503", code)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					get("/metrics")
					get("/telemetry.json")
					get("/healthz")
				}
			}
		}()
	}
	k.Spawn("w", func(pr *sim.Proc) {
		for i := 0; i < 2000; i++ {
			pr.Sleep(25)
			ops++
			lat.AddNs(int64(500 + i%100))
		}
	})
	k.RunAll()
	p.Sample(k.Now()) // flush the tail: the tick at end-time fires before the last op
	close(stop)
	wg.Wait()

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz after run = %d %q", code, body)
	}
	_, metrics := get("/metrics")
	if !strings.Contains(metrics, `ops{host="1"} 2000`) {
		t.Errorf("final /metrics missing the count's last value:\n%s", metrics)
	}
	code, body := get("/telemetry.json")
	if code != http.StatusOK {
		t.Fatalf("telemetry.json = %d", code)
	}
	var d Dump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("telemetry.json invalid: %v", err)
	}
	if d.Fairness == nil || len(d.Fairness.Hosts) != 1 {
		t.Errorf("fairness section = %+v, want 1 host", d.Fairness)
	}
}
