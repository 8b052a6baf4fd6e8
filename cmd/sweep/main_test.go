package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestEveryStrategyName runs every name the strategy registry lists,
// and descriptors with parameters, through the command at a tiny size;
// spotsim and livesim run the same table, so every command's -policy
// accepts the same set. An unknown name anywhere in the list is
// refused before any output, the CSV header included.
func TestEveryStrategyName(t *testing.T) {
	names := append(core.StrategyNames(), "markov-daly:span=6h:order=1", "large-bid:L=inf")
	var out bytes.Buffer
	if err := run([]string{"-policies", strings.Join(names, ","), "-windows", "1", "-bids", "0.81", "-ns", "2"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
	if len(rows) != len(names) {
		t.Fatalf("%d rows for %d policies:\n%s", len(rows), len(names), out.String())
	}
	for i, row := range rows {
		if !strings.HasPrefix(row, names[i]+",") {
			t.Errorf("row %d is %q, want policy %s", i, row, names[i])
		}
	}
	for _, list := range []string{"periodic,bogus", "markov-daly:span=0h", "periodic:L=1"} {
		out.Reset()
		if err := run([]string{"-policies", list, "-windows", "1"}, &out, io.Discard); err == nil || out.Len() > 0 {
			t.Errorf("-policies %s: err %v after %d bytes of output, want a refusal before any", list, err, out.Len())
		}
	}
}
