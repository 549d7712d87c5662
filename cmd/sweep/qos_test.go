package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQoSTrace writes the -qos -trace file and checks it holds the I/O
// spans and, next to them, the qos.* control-plane counter lanes.
func TestQoSTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qos-trace.json")
	if err := writeQoSTrace(io.Discard, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	spans, qosLanes := 0, map[string]bool{}
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Cat == "io":
			spans++
		case ev.Ph == "C" && strings.HasPrefix(ev.Name, "qos."):
			qosLanes[ev.Name] = true
		}
	}
	if spans == 0 {
		t.Error("no I/O spans in the trace")
	}
	if len(qosLanes) == 0 {
		t.Error("no qos. counter lane in the trace")
	}
}
