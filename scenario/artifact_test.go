package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

func tableArtifact() *Artifact {
	return &Artifact{
		Scenario: "t", Kind: KindTable, Title: "demo table",
		Tables: []Table{{
			Title:    "demo table",
			LabelCol: Column{Name: "Phase", HeaderFmt: "%-8s", CellFmt: "%-8s"},
			Columns: []Column{
				{Name: "Ln", HeaderFmt: "%6s", CellFmt: "%6.2f"},
				{Name: "%T", HeaderFmt: "%8s", CellFmt: "%7.2f%%"},
			},
			Rows: []TableRow{
				{Label: "asm", Values: []float64{0.66, 40.84}},
				{Label: "sgs", Values: []float64{0.61, 21.43}},
			},
		}},
	}
}

func figureArtifact() *Artifact {
	return &Artifact{
		Scenario: "f", Kind: KindFigure,
		Figures: []Figure{{
			ID: "Figure X", Title: "demo speedup", Unit: "x",
			Series: []Series{{Name: "A", Labels: []string{"p1", "p2"}, Values: []float64{1, 2}}},
			Notes:  []string{"a note"},
		}},
	}
}

// TestTableTextGolden pins the text renderer: declared printf verbs,
// single-space joins, trailing newline.
func TestTableTextGolden(t *testing.T) {
	want := "demo table\n" +
		"Phase        Ln       %T\n" +
		"asm        0.66   40.84%\n" +
		"sgs        0.61   21.43%\n"
	if got := tableArtifact().Text(); got != want {
		t.Fatalf("table text:\n%q\nwant:\n%q", got, want)
	}
}

func TestFigureTextGolden(t *testing.T) {
	want := "Figure X — demo speedup\n" +
		"  A\n" +
		"    p1              1.000 x |####################\n" +
		"    p2              2.000 x |########################################\n" +
		"note: a note\n"
	if got := figureArtifact().Text(); got != want {
		t.Fatalf("figure text:\n%q\nwant:\n%q", got, want)
	}
}

// TestRenderFigureBars: the longest bar belongs to the largest value
// across all series, negative values draw none, an all-zero figure
// renders without dividing by zero, and a figure without an ID prints
// its bare title.
func TestRenderFigureBars(t *testing.T) {
	f := Figure{Title: "bars", Unit: "s", Series: []Series{
		{Name: "A", Labels: []string{"neg", "half"}, Values: []float64{-1, 2}},
		{Name: "B", Labels: []string{"full"}, Values: []float64{4}},
	}}
	want := "bars\n" +
		"  A\n" +
		"    neg            -1.000 s |\n" +
		"    half            2.000 s |####################\n" +
		"  B\n" +
		"    full            4.000 s |########################################\n"
	if got := renderFigure(f); got != want {
		t.Fatalf("bars:\n%q\nwant:\n%q", got, want)
	}
	zero := Figure{ID: "Z", Title: "zero", Unit: "x", Series: []Series{{Name: "A", Labels: []string{"p"}, Values: []float64{0}}}}
	if got, want := renderFigure(zero), "Z — zero\n  A\n    p               0.000 x |\n"; got != want {
		t.Fatalf("all-zero figure:\n%q\nwant:\n%q", got, want)
	}
}

func TestTraceAndReportText(t *testing.T) {
	a := &Artifact{
		Scenario: "tr", Kind: KindTrace, Title: "trace title",
		Trace: &TraceData{Ranks: 2, Rendered: "timeline\n"},
	}
	if got := a.Text(); got != "trace title\ntimeline\n" {
		t.Fatalf("trace text %q", got)
	}
	r := &Artifact{Scenario: "r", Kind: KindReport, Report: "body\n", Notes: []string{"n"}}
	if got := r.Text(); got != "body\nnote: n\n" {
		t.Fatalf("report text %q", got)
	}
}

// TestArtifactJSONGolden pins the JSON shape and proves it round-trips
// through encoding/json.
func TestArtifactJSONGolden(t *testing.T) {
	out, err := tableArtifact().JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "scenario": "t",
  "kind": "table",
  "title": "demo table",
  "tables": [
    {
      "title": "demo table",
      "label": {
        "name": "Phase"
      },
      "columns": [
        {
          "name": "Ln"
        },
        {
          "name": "%T"
        }
      ],
      "rows": [
        {
          "label": "asm",
          "values": [
            0.66,
            40.84
          ]
        },
        {
          "label": "sgs",
          "values": [
            0.61,
            21.43
          ]
        }
      ]
    }
  ]
}`
	if string(out) != want {
		t.Fatalf("json golden drifted:\n%s", out)
	}
	var back Artifact
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario != "t" || back.Kind != KindTable || len(back.Tables) != 1 ||
		back.Tables[0].Rows[1].Values[1] != 21.43 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
}

// TestArtifactCSVGolden pins the flat CSV schema for every kind.
func TestArtifactCSVGolden(t *testing.T) {
	table, err := tableArtifact().CSV()
	if err != nil {
		t.Fatal(err)
	}
	wantTable := "scenario,kind,section,label,name,value\n" +
		"t,table,demo table,asm,Ln,0.66\n" +
		"t,table,demo table,asm,%T,40.84\n" +
		"t,table,demo table,sgs,Ln,0.61\n" +
		"t,table,demo table,sgs,%T,21.43\n"
	if table != wantTable {
		t.Fatalf("table csv:\n%s\nwant:\n%s", table, wantTable)
	}

	fig, err := figureArtifact().CSV()
	if err != nil {
		t.Fatal(err)
	}
	wantFig := "scenario,kind,section,label,name,value\n" +
		"f,figure,Figure X,p1,A,1\n" +
		"f,figure,Figure X,p2,A,2\n"
	if fig != wantFig {
		t.Fatalf("figure csv:\n%s", fig)
	}

	tr := &Artifact{
		Scenario: "tr", Kind: KindTrace, Title: "T",
		Trace: &TraceData{Ranks: 2, Rendered: "x\n",
			Phases: []PhaseTotals{{Phase: "Particles", PerRank: []float64{3, 0}}}},
	}
	trCSV, err := tr.CSV()
	if err != nil {
		t.Fatal(err)
	}
	wantTr := "scenario,kind,section,label,name,value\n" +
		"tr,trace,T,0,Particles,3\n" +
		"tr,trace,T,1,Particles,0\n"
	if trCSV != wantTr {
		t.Fatalf("trace csv:\n%s", trCSV)
	}

	rep := &Artifact{Scenario: "r", Kind: KindReport, Title: "R", Report: "l0\nl1, with comma\n"}
	repCSV, err := rep.CSV()
	if err != nil {
		t.Fatal(err)
	}
	wantRep := "scenario,kind,section,label,name,value\n" +
		"r,report,R,0,line,l0\n" +
		"r,report,R,1,line,\"l1, with comma\"\n"
	if repCSV != wantRep {
		t.Fatalf("report csv:\n%s", repCSV)
	}
}

// TestWriteCSVCombines renders several artifacts under one header.
func TestWriteCSVCombines(t *testing.T) {
	out, err := WriteCSV([]*Artifact{figureArtifact(), {Scenario: "r", Kind: KindReport, Report: "x\n"}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 2 figure points + 1 report line
		t.Fatalf("combined csv:\n%s", out)
	}
	if lines[0] != strings.Join(CSVHeader, ",") {
		t.Fatalf("header %q", lines[0])
	}
}
