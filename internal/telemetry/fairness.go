package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// Well-known metric names the fairness layer consumes. The cluster
// multihost runner registers one of each per host, labeled host="N".
const (
	// MetricHostIOs counts I/Os completed by one host (a gauge over a
	// monotone count).
	MetricHostIOs = "host.ios_completed"
	// MetricHostLatency is one host's end-to-end I/O latency in
	// virtual ns (histogram).
	MetricHostLatency = "host.latency"
)

// Jain computes Jain's fairness index (Σx)² / (n·Σx²) over a share
// vector: 1.0 means perfectly equal shares, 1/n means one participant
// got everything. Zero-length or all-zero input yields 0.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// HostFairness is one host's slice of the shared device over a window.
type HostFairness struct {
	Host string `json:"host"`
	// IOs completed in the window.
	IOs float64 `json:"ios"`
	// Share of all hosts' IOs, in [0,1].
	Share float64 `json:"share"`
	// MeanNs is the N-weighted mean of interval mean latencies.
	MeanNs float64 `json:"mean_ns,omitempty"`
	// P99Ns is the worst interval p99 observed in the window.
	P99Ns float64 `json:"p99_ns,omitempty"`
}

// FairnessReport summarises how fairly the shared device served its
// hosts over a window of the sampled series.
type FairnessReport struct {
	// WindowNs is the window the report covers (0 = full history).
	WindowNs int64 `json:"window_ns,omitempty"`
	// Hosts in ascending host-label order.
	Hosts []HostFairness `json:"hosts"`
	// JainIndex over the hosts' I/O counts: 1.0 = perfectly fair.
	JainIndex float64 `json:"jain_index"`
	// P99SpreadNs is max-min of the hosts' P99Ns — how much worse the
	// unluckiest host's tail is than the luckiest's.
	P99SpreadNs float64 `json:"p99_spread_ns"`
}

// Fairness computes a report over the trailing windowNs of virtual
// time (windowNs <= 0 covers everything sampled). It reads only the
// pipeline's sampled series, so it is safe to call concurrently with a
// running simulation.
func (p *Pipeline) Fairness(windowNs int64) FairnessReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fairnessLocked(windowNs)
}

func (p *Pipeline) fairnessLocked(windowNs int64) FairnessReport {
	rep := FairnessReport{WindowNs: windowNs}
	cutoff := int64(-1)
	if windowNs > 0 {
		cutoff = p.lastT - windowNs
	}
	byHost := make(map[string]*HostFairness)
	hostOf := func(s *Series) string {
		for _, l := range s.Labels {
			if l.Key == "host" {
				return l.Value
			}
		}
		return ""
	}
	get := func(host string) *HostFairness {
		hf := byHost[host]
		if hf == nil {
			hf = &HostFairness{Host: host}
			byHost[host] = hf
		}
		return hf
	}
	for _, s := range p.series {
		host := hostOf(s)
		if host == "" {
			continue
		}
		switch s.Name {
		case MetricHostIOs:
			hf := get(host)
			for i := 0; i < s.Len(); i++ {
				pt := s.At(i)
				if pt.T > cutoff {
					hf.IOs += pt.D
				}
			}
		case MetricHostLatency:
			hf := get(host)
			var n, sum float64
			for i := 0; i < s.Len(); i++ {
				pt := s.At(i)
				if pt.T <= cutoff || pt.N == 0 {
					continue
				}
				n += float64(pt.N)
				sum += pt.V * float64(pt.N)
				if pt.P99 > hf.P99Ns {
					hf.P99Ns = pt.P99
				}
			}
			if n > 0 {
				hf.MeanNs = sum / n
			}
		}
	}
	if len(byHost) == 0 {
		return rep
	}
	hosts := make([]string, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	// Numeric-aware sort so host="10" follows host="9".
	sort.Slice(hosts, func(i, j int) bool {
		a, b := hosts[i], hosts[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	var total float64
	shares := make([]float64, 0, len(hosts))
	minP99, maxP99 := -1.0, 0.0
	for _, h := range hosts {
		hf := byHost[h]
		total += hf.IOs
		shares = append(shares, hf.IOs)
		// Spread only over hosts that have latency data: a host without a
		// wired host.latency series must not pin the minimum at zero.
		if hf.P99Ns > 0 {
			if hf.P99Ns > maxP99 {
				maxP99 = hf.P99Ns
			}
			if minP99 < 0 || hf.P99Ns < minP99 {
				minP99 = hf.P99Ns
			}
		}
		rep.Hosts = append(rep.Hosts, *hf)
	}
	if total > 0 {
		for i := range rep.Hosts {
			rep.Hosts[i].Share = rep.Hosts[i].IOs / total
		}
	}
	rep.JainIndex = Jain(shares)
	if minP99 > 0 {
		rep.P99SpreadNs = maxP99 - minP99
	}
	return rep
}

// Table renders the report as aligned text for terminal output.
func (r FairnessReport) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %12s %8s %12s %12s\n", "host", "ios", "share", "mean_ns", "p99_ns")
	for _, h := range r.Hosts {
		fmt.Fprintf(&sb, "%-6s %12.0f %7.1f%% %12.0f %12.0f\n",
			h.Host, h.IOs, h.Share*100, h.MeanNs, h.P99Ns)
	}
	fmt.Fprintf(&sb, "jain=%.4f p99_spread=%.0fns\n", r.JainIndex, r.P99SpreadNs)
	return sb.String()
}
