package scenario

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind classifies an Artifact's payload.
type Kind string

// Artifact kinds.
const (
	KindTable  Kind = "table"  // measured-vs-reference numeric tables (Table 1)
	KindFigure Kind = "figure" // named series over labeled points (Figures 6-11)
	KindTrace  Kind = "trace"  // Paraver-style timeline plus per-rank phase totals
	KindReport Kind = "report" // free-text report (IPC discussion, A/B timings)
)

// Column describes one value column of a Table: its name (used by the
// JSON and CSV renderers) and the printf verbs the text renderer applies
// to the header and the cells (so a scenario controls its exact text
// layout without owning a renderer).
type Column struct {
	Name      string `json:"name"`
	HeaderFmt string `json:"-"`
	CellFmt   string `json:"-"`
}

// TableRow is one labeled row of numeric cells, in column order.
type TableRow struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// Table is a titled numeric table with a label column and value columns.
type Table struct {
	Title    string     `json:"title,omitempty"`
	LabelCol Column     `json:"label"`
	Columns  []Column   `json:"columns"`
	Rows     []TableRow `json:"rows"`
}

// Series is one named bar group of a figure.
type Series struct {
	Name   string    `json:"name"`
	Labels []string  `json:"labels"`
	Values []float64 `json:"values"`
}

// Figure is a titled set of series, rendered as a text bar chart.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Unit   string   `json:"unit"`
	Series []Series `json:"series"`
	Notes  []string `json:"notes,omitempty"`
}

// PhaseTotals carries one phase's per-rank virtual time of a trace.
type PhaseTotals struct {
	Phase   string    `json:"phase"`
	PerRank []float64 `json:"perRank"`
}

// TraceData is a rendered timeline plus its structured per-rank totals.
type TraceData struct {
	Ranks    int           `json:"ranks"`
	Rendered string        `json:"rendered"`
	Phases   []PhaseTotals `json:"phases,omitempty"`
}

// Artifact is the typed result of one scenario run. Exactly one payload
// group is populated according to Kind; the renderers below are uniform
// over all kinds.
type Artifact struct {
	Scenario string     `json:"scenario"`
	Kind     Kind       `json:"kind"`
	Title    string     `json:"title,omitempty"`
	Tables   []Table    `json:"tables,omitempty"`
	Figures  []Figure   `json:"figures,omitempty"`
	Trace    *TraceData `json:"trace,omitempty"`
	Report   string     `json:"report,omitempty"`
	Notes    []string   `json:"notes,omitempty"`
}

// Text renders the artifact as the plain text `respira fig` prints: tables
// with their declared column formats, figures as bar charts, traces as
// their title plus timeline, reports verbatim. Blocks within one
// artifact (e.g. one figure per platform) are separated by a blank line.
func (a *Artifact) Text() string {
	var blocks []string
	for _, t := range a.Tables {
		blocks = append(blocks, renderTable(t))
	}
	for _, f := range a.Figures {
		blocks = append(blocks, renderFigure(f))
	}
	if a.Trace != nil {
		s := a.Trace.Rendered
		if a.Title != "" {
			s = a.Title + "\n" + s
		}
		blocks = append(blocks, s)
	}
	if a.Report != "" {
		blocks = append(blocks, a.Report)
	}
	out := strings.Join(blocks, "\n")
	for _, n := range a.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// JSON renders the artifact as indented JSON.
func (a *Artifact) JSON() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// CSVHeader is the uniform header of the flat CSV rendering.
var CSVHeader = []string{"scenario", "kind", "section", "label", "name", "value"}

// CSVRecords flattens the artifact into records under CSVHeader: tables
// emit (title, row label, column name, cell), figures (id, point label,
// series name, value), traces (title, rank, phase, virtual time), and
// reports one record per line with the text in the value field.
func (a *Artifact) CSVRecords() [][]string {
	var recs [][]string
	rec := func(section, label, name, value string) {
		recs = append(recs, []string{a.Scenario, string(a.Kind), section, label, name, value})
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, t := range a.Tables {
		for _, row := range t.Rows {
			for c, v := range row.Values {
				rec(t.Title, row.Label, t.Columns[c].Name, num(v))
			}
		}
	}
	for _, f := range a.Figures {
		for _, s := range f.Series {
			for i, v := range s.Values {
				rec(f.ID, s.Labels[i], s.Name, num(v))
			}
		}
	}
	if a.Trace != nil {
		for _, p := range a.Trace.Phases {
			for r, v := range p.PerRank {
				rec(a.Title, strconv.Itoa(r), p.Phase, num(v))
			}
		}
	}
	if a.Report != "" {
		for i, line := range strings.Split(strings.TrimRight(a.Report, "\n"), "\n") {
			rec(a.Title, strconv.Itoa(i), "line", line)
		}
	}
	return recs
}

// CSV renders the artifact as a standalone CSV document (header included).
// To combine several artifacts into one document, use WriteCSV.
func (a *Artifact) CSV() (string, error) {
	return WriteCSV([]*Artifact{a})
}

// WriteCSV renders several artifacts as one CSV document under a single
// uniform header.
func WriteCSV(arts []*Artifact) (string, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(CSVHeader); err != nil {
		return "", err
	}
	for _, a := range arts {
		if err := w.WriteAll(a.CSVRecords()); err != nil {
			return "", err
		}
	}
	w.Flush()
	return buf.String(), w.Error()
}

// renderTable prints the title line, a header row, and one line per row,
// using each column's declared printf verbs joined by single spaces.
func renderTable(t Table) string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	fmt.Fprintf(&sb, t.LabelCol.HeaderFmt, t.LabelCol.Name)
	for _, c := range t.Columns {
		sb.WriteString(" ")
		fmt.Fprintf(&sb, c.HeaderFmt, c.Name)
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		fmt.Fprintf(&sb, t.LabelCol.CellFmt, row.Label)
		for c, v := range row.Values {
			sb.WriteString(" ")
			fmt.Fprintf(&sb, t.Columns[c].CellFmt, v)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// renderFigure prints the title line, then one aligned row per point:
// label, value, unit, and a bar of '#' scaled so the largest value in
// the figure fills barWidth (negative values draw no bar). The notes
// follow.
func renderFigure(f Figure) string {
	const barWidth = 40
	scale := 0.0
	for _, s := range f.Series {
		for _, v := range s.Values {
			if v > scale {
				scale = v
			}
		}
	}
	if scale == 0 {
		scale = 1
	}
	var sb strings.Builder
	if f.ID != "" {
		sb.WriteString(f.ID + " — ")
	}
	sb.WriteString(f.Title + "\n")
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "  %s\n", s.Name)
		for i, v := range s.Values {
			n := max(0, min(barWidth, int(math.Round(v/scale*barWidth))))
			fmt.Fprintf(&sb, "    %-12s %8.3f %s |%s\n", s.Labels[i], v, f.Unit, strings.Repeat("#", n))
		}
	}
	for _, n := range f.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}
