package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

// TestEveryExperimentName runs each experiment of the suite through the
// command in-process at a few windows, convergence at its smallest
// prefix count, and fig5 with -csv and -svg.
func TestEveryExperimentName(t *testing.T) {
	dir := t.TempDir()
	for _, st := range report.SuiteSteps(300) {
		args := []string{"-windows", "2", st.Name}
		if st.MinWindows > 2 {
			args = []string{"-windows", "5", st.Name}
		}
		if st.Name == "fig5" {
			args = append([]string{"-csv", dir, "-svg", dir}, args...)
		}
		var out bytes.Buffer
		if err := run(args, &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s printed nothing", st.Name)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 16 {
		t.Fatalf("fig5 wrote %d files, want a CSV and an SVG for each of its 8 panels", len(files))
	}
	svg, err := os.ReadFile(filepath.Join(dir, "fig5_high_slack15_tc300.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if od, min := bytes.Index(svg, []byte("on-demand $48.00")), bytes.Index(svg, []byte("min spot $5.40")); od < 0 || min < od {
		t.Fatalf("reference lines at offsets %d and %d, want on-demand then min spot", od, min)
	}
}

// TestRefusals checks that an unknown experiment and a window count
// below 1 fail before any output, and that convergence run alone below
// its smallest prefix count still fails with the driver's error (only
// all skips it).
func TestRefusals(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-windows", "2", "fig7"}, &out, io.Discard); err == nil || out.Len() > 0 {
		t.Errorf("fig7: err %v after %d bytes of output, want a refusal before any", err, out.Len())
	}
	if err := run([]string{"-windows", "2", "convergence"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "no valid prefix counts") {
		t.Errorf("convergence at 2 windows: err %v, want the driver's prefix-count error", err)
	}
	if err := run(nil, io.Discard, io.Discard); err != errUsage {
		t.Errorf("no experiment: err %v, want the usage error", err)
	}
	for _, w := range []string{"0", "-3"} {
		for _, name := range []string{"fig5", "all"} {
			out.Reset()
			if err := run([]string{"-windows", w, name}, &out, io.Discard); err != errUsage || out.Len() > 0 {
				t.Errorf("-windows %s %s: err %v after %d bytes of output, want the usage error before any", w, name, err, out.Len())
			}
		}
	}
}
