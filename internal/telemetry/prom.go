package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// promName maps a dotted metric name to the Prometheus character set:
// dots and dashes become underscores, anything else outside
// [a-zA-Z0-9_:] is dropped to '_' as well.
func promName(name string) string {
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			sb.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promLabels renders a label set (plus optional extra pairs) in
// Prometheus exposition syntax, empty string for no labels.
func promLabels(s *Series, extra ...string) string {
	if len(s.Labels) == 0 && len(extra) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	n := 0
	for _, l := range s.Labels {
		if n > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", promName(l.Key), l.Value)
		n++
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if n > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", extra[i], extra[i+1])
		n++
	}
	sb.WriteByte('}')
	return sb.String()
}

// WriteProm renders the latest sample of every series in Prometheus
// text exposition format (version 0.0.4). Gauges expose their last
// value, histograms a summary whose
// quantiles cover the *last sampling interval* (the live view a scraper
// wants) with cumulative _count/_sum. Only sampled state is read, so
// scraping during a run is safe.
func (p *Pipeline) WriteProm(w io.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Group series by base name, preserving first-seen order, so all
	// label variants sit under one # TYPE header.
	type group struct {
		kind   string
		series []*Series
	}
	var order []string
	groups := make(map[string]*group)
	for _, s := range p.series {
		g := groups[s.Name]
		if g == nil {
			g = &group{kind: s.Kind}
			groups[s.Name] = g
			order = append(order, s.Name)
		}
		g.series = append(g.series, s)
	}
	for _, name := range order {
		g := groups[name]
		pn := promName(name)
		switch g.kind {
		case "histogram":
			fmt.Fprintf(w, "# TYPE %s summary\n", pn)
		default:
			fmt.Fprintf(w, "# TYPE %s gauge\n", pn)
		}
		for _, s := range g.series {
			pt, ok := s.Last()
			if !ok {
				continue
			}
			key := s.FullName()
			switch g.kind {
			case "histogram":
				for _, q := range [...]struct {
					q string
					v float64
				}{{"0.5", pt.P50}, {"0.95", pt.P95}, {"0.99", pt.P99}, {"0.999", pt.P999}} {
					fmt.Fprintf(w, "%s%s %g\n", pn, promLabels(s, "quantile", q.q), q.v)
				}
				fmt.Fprintf(w, "%s_count%s %d\n", pn, promLabels(s), p.histCount[key])
				fmt.Fprintf(w, "%s_sum%s %g\n", pn, promLabels(s), p.histSum[key])
			default:
				fmt.Fprintf(w, "%s%s %g\n", pn, promLabels(s), pt.V)
			}
		}
	}
}
