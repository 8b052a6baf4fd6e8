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
// spotsim and sweep run the same table, so every command's -policy
// accepts the same set. An unknown name is refused before any output.
func TestEveryStrategyName(t *testing.T) {
	for _, name := range append(core.StrategyNames(), "markov-daly:span=6h:order=1", "large-bid:L=inf") {
		var out bytes.Buffer
		if err := run([]string{"-policy", name, "-n", "2", "-work", "2"}, &out, io.Discard); err != nil {
			t.Errorf("-policy %s: %v", name, err)
		}
		if !strings.Contains(out.String(), "completed:") {
			t.Errorf("-policy %s printed no report:\n%s", name, out.String())
		}
	}
	for _, name := range []string{"bogus", "markov-daly:span=0h", "periodic:L=1"} {
		var out bytes.Buffer
		if err := run([]string{"-policy", name}, &out, io.Discard); err == nil || out.Len() > 0 {
			t.Errorf("-policy %s: err %v after %d bytes of output, want a refusal before any", name, err, out.Len())
		}
	}
}
