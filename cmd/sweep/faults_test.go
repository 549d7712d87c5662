package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestFaultsReportCrashAfterBudget: at -ios 40 every host finishes before
// the crash. The report says that the crash interrupted no IO, and prints
// the after-crash Jain index, whose window holds no completion, as n/a.
func TestFaultsReportCrashAfterBudget(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-faults", "-ios", "40", "-out", filepath.Join(t.TempDir(), "faults.json")}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"the crash landed after the crashed host's last IO: it had finished all 40, so no IO was interrupted",
		"survivor fairness (Jain): 1.0000 before crash, n/a after",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
