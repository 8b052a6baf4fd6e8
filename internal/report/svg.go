package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/stats"
)

// SVG boxplot rendering: a self-contained, dependency-free generator of
// publication-style panels matching the paper's figure layout — one box
// per labelled sample, reference lines for the on-demand and minimum
// spot costs.

// SVGPanel describes one boxplot figure.
type SVGPanel struct {
	// Title is drawn across the top.
	Title string
	// Labels and Boxes pair one x-axis entry per boxplot.
	Labels []string
	Boxes  []stats.Box
	// RefLines are horizontal reference values with labels (e.g. the
	// $48 on-demand line), drawn in order.
	RefLines []RefLine
	// YLabel captions the y axis (default "Cost per Instance ($)").
	YLabel string
}

// RefLine is one labelled horizontal reference value of a panel.
type RefLine struct {
	Label string
	Value float64
}

// geometry constants (pixels).
const (
	svgW       = 640
	svgH       = 420
	svgMarginL = 70
	svgMarginR = 20
	svgMarginT = 40
	svgMarginB = 70
)

// WriteSVG renders the panel as an SVG document.
func WriteSVG(w io.Writer, p SVGPanel) error {
	if len(p.Labels) != len(p.Boxes) {
		return fmt.Errorf("report: %d labels for %d boxes", len(p.Labels), len(p.Boxes))
	}
	if len(p.Boxes) == 0 {
		return fmt.Errorf("report: empty panel")
	}
	yLabel := p.YLabel
	if yLabel == "" {
		yLabel = "Cost per Instance ($)"
	}

	// Scale: 0 .. max(box max, refs) × 1.05.
	top := 0.0
	for _, b := range p.Boxes {
		if b.N > 0 && !math.IsNaN(b.Max) && b.Max > top {
			top = b.Max
		}
	}
	for _, r := range p.RefLines {
		if r.Value > top {
			top = r.Value
		}
	}
	if top <= 0 {
		top = 1
	}
	top *= 1.05
	plotW := float64(svgW - svgMarginL - svgMarginR)
	plotH := float64(svgH - svgMarginT - svgMarginB)
	y := func(v float64) float64 { return float64(svgMarginT) + plotH*(1-v/top) }

	var sb strings.Builder
	sb.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", svgW, svgH, svgW, svgH)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&sb, `<text x="%d" y="24" font-family="sans-serif" font-size="14" font-weight="bold">%s</text>`+"\n", svgMarginL, escape(p.Title))

	// Axes.
	fmt.Fprintf(&sb, `<line x1="%d" y1="%g" x2="%d" y2="%g" stroke="black"/>`+"\n",
		svgMarginL, y(0), svgW-svgMarginR, y(0))
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%g" stroke="black"/>`+"\n",
		svgMarginL, svgMarginT, svgMarginL, y(0))
	fmt.Fprintf(&sb, `<text x="16" y="%g" font-family="sans-serif" font-size="11" transform="rotate(-90 16 %g)">%s</text>`+"\n",
		float64(svgMarginT)+plotH/2, float64(svgMarginT)+plotH/2, escape(yLabel))

	// Y ticks: five evenly spaced values.
	for i := 0; i <= 5; i++ {
		v := top * float64(i) / 5
		fmt.Fprintf(&sb, `<line x1="%d" y1="%g" x2="%d" y2="%g" stroke="#ddd"/>`+"\n",
			svgMarginL, y(v), svgW-svgMarginR, y(v))
		fmt.Fprintf(&sb, `<text x="%d" y="%g" font-family="sans-serif" font-size="10" text-anchor="end">%.0f</text>`+"\n",
			svgMarginL-6, y(v)+3, v)
	}

	// Reference lines.
	for _, r := range p.RefLines {
		fmt.Fprintf(&sb, `<line x1="%d" y1="%g" x2="%d" y2="%g" stroke="#888" stroke-dasharray="6,3"/>`+"\n",
			svgMarginL, y(r.Value), svgW-svgMarginR, y(r.Value))
		fmt.Fprintf(&sb, `<text x="%d" y="%g" font-family="sans-serif" font-size="10" fill="#555" text-anchor="end">%s</text>`+"\n",
			svgW-svgMarginR, y(r.Value)-4, escape(r.Label))
	}

	// Boxes.
	slot := plotW / float64(len(p.Boxes))
	boxW := slot * 0.5
	for i, b := range p.Boxes {
		cx := float64(svgMarginL) + slot*(float64(i)+0.5)
		if b.N > 0 && !math.IsNaN(b.Median) {
			// Whiskers.
			fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", cx, y(b.Min), cx, y(b.Q1))
			fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", cx, y(b.Q3), cx, y(b.Max))
			fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", cx-boxW/4, y(b.Min), cx+boxW/4, y(b.Min))
			fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", cx-boxW/4, y(b.Max), cx+boxW/4, y(b.Max))
			// Box.
			fmt.Fprintf(&sb, `<rect x="%g" y="%g" width="%g" height="%g" fill="#c6dbef" stroke="black"/>`+"\n",
				cx-boxW/2, y(b.Q3), boxW, math.Max(1, y(b.Q1)-y(b.Q3)))
			// Median.
			fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black" stroke-width="2"/>`+"\n",
				cx-boxW/2, y(b.Median), cx+boxW/2, y(b.Median))
		}
		// X label, slanted for readability.
		fmt.Fprintf(&sb, `<text x="%g" y="%g" font-family="sans-serif" font-size="10" text-anchor="end" transform="rotate(-35 %g %g)">%s</text>`+"\n",
			cx, y(0)+14, cx, y(0)+14, escape(p.Labels[i]))
	}

	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// escape sanitises text for SVG embedding.
func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
