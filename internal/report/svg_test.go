package report

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/stats"
)

func samplePanel() SVGPanel {
	return SVGPanel{
		Title:  "Figure 4 — high volatility, slack 15%",
		Labels: []string{"periodic@0.81", "redundancy@0.81"},
		Boxes: []stats.Box{
			stats.NewBox([]float64{40, 42, 44, 46, 48}),
			stats.NewBox([]float64{15, 17, 20, 26, 37}),
		},
		RefLines: []RefLine{{"on-demand $48", 48}, {"min spot $5.40", 5.4}},
	}
}

func TestWriteSVGWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSVG(&buf, samplePanel()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The document must be well-formed XML.
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("malformed SVG: %v", err)
		}
	}
	for _, want := range []string{"<svg", "rect", "Figure 4", "on-demand $48", "periodic@0.81"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
}

// TestWriteSVGRefLinesInOrder pins that reference lines are drawn in
// the panel's order, so a figure renders the same bytes on every run.
func TestWriteSVGRefLinesInOrder(t *testing.T) {
	p := samplePanel()
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := WriteSVG(&buf, p); err != nil {
			t.Fatal(err)
		}
		first, second := strings.Index(buf.String(), p.RefLines[0].Label), strings.Index(buf.String(), p.RefLines[1].Label)
		if first < 0 || second < 0 || first > second {
			t.Fatalf("reference lines %q and %q at offsets %d and %d, want both, in panel order", p.RefLines[0].Label, p.RefLines[1].Label, first, second)
		}
		p.RefLines[0], p.RefLines[1] = p.RefLines[1], p.RefLines[0]
	}
}

func TestWriteSVGErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSVG(&buf, SVGPanel{Labels: []string{"a"}, Boxes: nil}); err == nil {
		t.Fatal("accepted mismatched labels/boxes")
	}
	if err := WriteSVG(&buf, SVGPanel{}); err == nil {
		t.Fatal("accepted an empty panel")
	}
}

func TestWriteSVGHandlesEmptyBox(t *testing.T) {
	p := SVGPanel{
		Title:  "empty box",
		Labels: []string{"none"},
		Boxes:  []stats.Box{stats.NewBox(nil)},
	}
	var buf bytes.Buffer
	if err := WriteSVG(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "none") {
		t.Fatal("label missing for empty box")
	}
}

func TestEscape(t *testing.T) {
	if got := escape(`a<b>&"c"`); got != "a&lt;b&gt;&amp;&quot;c&quot;" {
		t.Fatalf("escape = %q", got)
	}
}
