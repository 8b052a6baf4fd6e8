// Package report renders experiment results as aligned text tables,
// ASCII boxplots, CSV and SVG, mirroring the shape of the paper's
// figures in a terminal, and holds the paper suite's step list
// (SuiteSteps), which cmd/paperfigs prints.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/stats"
)

// Table writes rows under headers with aligned columns.
func Table(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteString("\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := line(headers); err != nil {
		return err
	}
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// BoxCells formats a boxplot as table cells: n, min, q1, median, q3, max.
func BoxCells(b stats.Box) []string {
	f := func(v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		return fmt.Sprintf("%.2f", v)
	}
	return []string{
		fmt.Sprintf("%d", b.N), f(b.Min), f(b.Q1), f(b.Median), f(b.Q3), f(b.Max),
	}
}

// BoxHeaders returns the headers matching BoxCells.
func BoxHeaders() []string { return []string{"n", "min", "q1", "median", "q3", "max"} }

// AsciiBox draws a horizontal box-and-whisker over [lo, hi] in width
// runes: whiskers as '-', the box as '=', the median as 'M'.
func AsciiBox(b stats.Box, lo, hi float64, width int) string {
	if width < 10 {
		width = 10
	}
	if b.N == 0 || math.IsNaN(b.Median) || hi <= lo {
		return strings.Repeat(" ", width)
	}
	pos := func(v float64) int {
		p := int(math.Round((v - lo) / (hi - lo) * float64(width-1)))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	out := []rune(strings.Repeat(" ", width))
	for i := pos(b.Min); i <= pos(b.Max); i++ {
		out[i] = '-'
	}
	for i := pos(b.Q1); i <= pos(b.Q3); i++ {
		out[i] = '='
	}
	out[pos(b.Median)] = 'M'
	return string(out)
}

// Gauge renders a reference marker line (e.g. the $48 on-demand line)
// aligned with AsciiBox output.
func Gauge(value, lo, hi float64, width int, mark rune) string {
	if width < 10 {
		width = 10
	}
	out := []rune(strings.Repeat(" ", width))
	if hi > lo {
		p := int(math.Round((value - lo) / (hi - lo) * float64(width-1)))
		if p >= 0 && p < width {
			out[p] = mark
		}
	}
	return string(out)
}

// WriteCSV emits one header row and the given rows as RFC 4180 CSV.
// Cells are quoted only when needed, so the output of numeric tables is
// byte-stable across runs — which is what the golden regret-report
// fixtures rely on.
func WriteCSV(w io.Writer, headers []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(headers); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteBoxesCSV emits labelled boxplots as CSV rows
// "label,n,min,q1,median,q3,max,mean".
func WriteBoxesCSV(w io.Writer, labels []string, boxes []stats.Box) error {
	if _, err := io.WriteString(w, "label,n,min,q1,median,q3,max,mean\n"); err != nil {
		return err
	}
	for i, b := range boxes {
		_, err := fmt.Fprintf(w, "%s,%d,%g,%g,%g,%g,%g,%g\n",
			labels[i], b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
		if err != nil {
			return err
		}
	}
	return nil
}
