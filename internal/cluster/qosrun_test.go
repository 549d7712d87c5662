package cluster

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestQoSNoisyNeighborDominance is the PR's core claim: at an offered
// load the no-QoS baseline cannot sustain, WRR arbitration plus
// admission control keeps the latency-sensitive class inside its SLO by
// shedding the noisy class — and the shedding path never touches the
// fault-recovery machinery (no timeouts, no retries, no quarantined
// slots: a shed is a refusal, not a failure).
func TestQoSNoisyNeighborDominance(t *testing.T) {
	base := QoSRunConfig{Scenario: QoSNoisyNeighbor, RateScale: 1.0}

	noqos, err := RunQoSScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	qcfg := base
	qcfg.QoS = true
	withQoS, err := RunQoSScenario(qcfg)
	if err != nil {
		t.Fatal(err)
	}

	if noqos.SLOMet {
		t.Errorf("baseline unexpectedly met SLO at scale 1.0: latency violations %d/%d",
			noqos.Classes[0].Violations, noqos.Classes[0].Windows)
	}
	if !withQoS.SLOMet {
		t.Errorf("QoS failed to protect latency class at scale 1.0: violations %d/%d",
			withQoS.Classes[0].Violations, withQoS.Classes[0].Windows)
	}
	if withQoS.Classes[0].Shed != 0 {
		t.Errorf("latency class is exempt but was shed %d times", withQoS.Classes[0].Shed)
	}
	if withQoS.Classes[1].Shed == 0 {
		t.Error("noisy class was never shed; admission control did nothing")
	}
	if withQoS.ClientSheds != withQoS.Classes[0].Shed+withQoS.Classes[1].Shed {
		t.Errorf("client shed counter %d != engine shed total %d",
			withQoS.ClientSheds, withQoS.Classes[0].Shed+withQoS.Classes[1].Shed)
	}

	// Shed-vs-timeout regression (the PR 5 retry/backoff audit): a shed
	// happens before submission, so the recovery counters must all stay
	// zero in both runs — with and without admission control.
	for name, res := range map[string]*QoSRunResult{"noqos": noqos, "qos": withQoS} {
		if res.Timeouts != 0 || res.Retries != 0 || res.Quarantined != 0 {
			t.Errorf("%s: recovery machinery fired under pure load: timeouts=%d retries=%d quarantined=%d",
				name, res.Timeouts, res.Retries, res.Quarantined)
		}
		for _, cl := range res.Classes {
			if cl.Failed != 0 {
				t.Errorf("%s: class %s had %d failed I/Os", name, cl.Class, cl.Failed)
			}
		}
	}
	if noqos.ClientSheds != 0 {
		t.Errorf("baseline shed %d requests with admission disabled", noqos.ClientSheds)
	}

	// QoS must not starve the noisy class outright: it still completes
	// a substantial share of its issued requests.
	if n := withQoS.Classes[1]; n.Completed*4 < n.Issued {
		t.Errorf("noisy class starved: %d completed of %d issued", n.Completed, n.Issued)
	}
}

// TestQoSLatencySensitiveCapacity: in the homogeneous scenario there is
// no aggressor to shed, so QoS neither helps nor hurts — both modes
// meet SLO below the device's capacity knee and both fail above it.
func TestQoSLatencySensitiveCapacity(t *testing.T) {
	for _, qosOn := range []bool{false, true} {
		below, err := RunQoSScenario(QoSRunConfig{
			Scenario: QoSLatencySensitive, QoS: qosOn, RateScale: 4, DurationNs: 10e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !below.SLOMet {
			t.Errorf("qos=%v: SLO missed well below capacity (%.0f IOPS offered)",
				qosOn, below.OfferedIOPS)
		}
		above, err := RunQoSScenario(QoSRunConfig{
			Scenario: QoSLatencySensitive, QoS: qosOn, RateScale: 12, DurationNs: 10e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if above.SLOMet {
			t.Errorf("qos=%v: SLO met beyond device capacity (%.0f IOPS offered) — no queueing model?",
				qosOn, above.OfferedIOPS)
		}
	}
}

// TestQoSScenarioDeterminism: identical config twice gives a
// byte-identical result — same arrival digest, same JSON encoding.
func TestQoSScenarioDeterminism(t *testing.T) {
	cfg := QoSRunConfig{Scenario: QoSNoisyNeighbor, QoS: true, RateScale: 1.0, DurationNs: 10e6}
	a, err := RunQoSScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunQoSScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same config, different results:\n%s\n%s", ja, jb)
	}
	if a.ArrivalDigest == "" || a.ArrivalDigest == "0000000000000000" {
		t.Fatalf("arrival digest missing: %q", a.ArrivalDigest)
	}
}

// qosGoldenNames pins the QoS scenario's own gauge names (class-labeled
// qos.* and arrival.* families), same contract as the main golden list.
var qosGoldenNames = []string{
	`qos.windows{class="latency"}`,
	`qos.violations{class="latency"}`,
	`qos.throttles{class="latency"}`,
	`qos.sheds{class="latency"}`,
	`qos.min_admit_frac{class="latency"}`,
	`arrival.issued{class="latency"}`,
	`arrival.dropped{class="latency"}`,
	`arrival.completed{class="latency"}`,
	`arrival.shed{class="latency"}`,
	`arrival.failed{class="latency"}`,
	`qos.windows{class="noisy"}`,
	`qos.violations{class="noisy"}`,
	`qos.throttles{class="noisy"}`,
	`qos.sheds{class="noisy"}`,
	`qos.min_admit_frac{class="noisy"}`,
	`arrival.issued{class="noisy"}`,
	`arrival.dropped{class="noisy"}`,
	`arrival.completed{class="noisy"}`,
	`arrival.shed{class="noisy"}`,
	`arrival.failed{class="noisy"}`,
}

// TestQoSMetricsGoldenNames: the QoS run's registry carries the
// qos.*/arrival.* families in a stable order, the nvme.arb.* class
// counters see WRR traffic, and every QoS gauge the scenario promises
// is present exactly once.
func TestQoSMetricsGoldenNames(t *testing.T) {
	reg := trace.NewRegistry()
	_, err := RunQoSScenario(QoSRunConfig{
		Scenario: QoSNoisyNeighbor, QoS: true, RateScale: 1.0, DurationNs: 10e6,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, mv := range reg.Snapshot() {
		if n := mv.FullName(); strings.HasPrefix(n, "qos.") || strings.HasPrefix(n, "arrival.") {
			got = append(got, n)
		}
	}
	if len(got) != len(qosGoldenNames) {
		t.Errorf("got %d qos/arrival gauges, golden has %d: %v", len(got), len(qosGoldenNames), got)
	}
	for i, want := range qosGoldenNames {
		if i >= len(got) {
			break
		}
		if got[i] != want {
			t.Errorf("name[%d] = %q, want %q", i, got[i], want)
		}
	}

	snap := reg.Snapshot()
	vals := map[string]float64{}
	for _, m := range snap {
		vals[m.FullName()] = m.Value
	}
	if vals[`arrival.issued{class="latency"}`] == 0 || vals[`arrival.issued{class="noisy"}`] == 0 {
		t.Error("arrival engines issued nothing")
	}
	if vals[`qos.sheds{class="noisy"}`] == 0 {
		t.Error("noisy class never shed under QoS at scale 1.0")
	}
	if vals["nvme.arb.high_fetched"] == 0 || vals["nvme.arb.low_fetched"] == 0 {
		t.Error("WRR class counters saw no traffic despite priority queues")
	}
	if vals["nvme.arb.wrr_rounds"] == 0 {
		t.Error("controller never ran a WRR credit round despite CC.AMS=WRR")
	}
}
