package graph

import (
	"slices"
	"testing"
)

// pairListShared is the oracle for Shared: the graph on the rows of inc
// (two rows adjacent iff they share a column) built the slow way, every
// sharing pair appended explicitly and then FromAdjacency.
func pairListShared(rows [][]int32, ncols int) *CSR {
	byCol := make([][]int32, ncols)
	for v, cols := range rows {
		for _, c := range cols {
			byCol[c] = append(byCol[c], int32(v))
		}
	}
	lists := make([][]int32, len(rows))
	for _, vs := range byCol {
		for _, v := range vs {
			lists[v] = append(lists[v], vs...)
		}
	}
	return FromAdjacency(lists)
}

// incidence packs explicit rows into CSR form.
func incidence(rows [][]int32) *CSR {
	inc := &CSR{Ptr: make([]int32, len(rows)+1)}
	for v, cols := range rows {
		inc.Adj = append(inc.Adj, cols...)
		inc.Ptr[v+1] = int32(len(inc.Adj))
	}
	return inc
}

// transposeRows is the oracle for Transpose.
func transposeRows(rows [][]int32, ncols int) [][]int32 {
	out := make([][]int32, ncols)
	for v, cols := range rows {
		for _, c := range cols {
			out[c] = append(out[c], int32(v))
		}
	}
	return out
}

func csrEqual(a, b *CSR) bool {
	return slices.Equal(a.Ptr, b.Ptr) && slices.Equal(a.Adj, b.Adj)
}

// checkShared asserts Transpose and Shared in both directions equal their
// oracles on the incidence rows over ncols columns, and that both shared
// graphs validate.
func checkShared(t *testing.T, rows [][]int32, ncols int) {
	t.Helper()
	inc := incidence(rows)
	incT := Transpose(inc, ncols)
	colRows := transposeRows(rows, ncols)
	if want := incidence(colRows); !csrEqual(incT, want) {
		t.Fatalf("Transpose(%v) = %v/%v, want %v/%v", rows, incT.Ptr, incT.Adj, want.Ptr, want.Adj)
	}
	for _, c := range []struct {
		name      string
		got, want *CSR
	}{
		{"rows", Shared(inc, incT), pairListShared(rows, ncols)},
		{"cols", Shared(incT, inc), pairListShared(colRows, len(rows))},
	} {
		if !csrEqual(c.got, c.want) {
			t.Fatalf("%s of %v: Shared = %v/%v, want %v/%v", c.name, rows, c.got.Ptr, c.got.Adj, c.want.Ptr, c.want.Adj)
		}
		if err := c.got.Validate(); err != nil {
			t.Fatalf("%s of %v: %v", c.name, rows, err)
		}
	}
}

func TestSharedMatchesPairLists(t *testing.T) {
	checkShared(t, nil, 0)
	checkShared(t, nil, 3)
	checkShared(t, [][]int32{{}, {}}, 0)
	// Two tets sharing a face, a lone element, an empty row and an
	// element listing one node twice.
	checkShared(t, [][]int32{{0, 1, 2, 3}, {1, 2, 3, 4}, {5, 6}, {}, {6, 6, 2}}, 8)
}

// FuzzShared: on any incidence (empty rows, columns repeated within a
// row, no rows at all) Transpose and Shared equal their pair-list
// oracles and the shared graphs validate. Each byte at or above 0xF0
// starts a new row; any other byte appends column b % ncols.
func FuzzShared(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{0xF0, 0xF0})
	f.Add(uint8(5), []byte{0, 1, 2, 0xF0, 1, 2, 3, 0xF0, 0xF0, 4, 4, 0})
	f.Add(uint8(16), []byte{15, 3, 3, 3, 0xF1, 3})
	f.Fuzz(func(t *testing.T, nc uint8, data []byte) {
		ncols := int(nc % 17)
		var rows [][]int32
		for _, b := range data {
			if b >= 0xF0 || ncols == 0 || len(rows) == 0 {
				rows = append(rows, nil)
			}
			if b < 0xF0 && ncols > 0 {
				rows[len(rows)-1] = append(rows[len(rows)-1], int32(int(b)%ncols))
			}
		}
		checkShared(t, rows, ncols)
	})
}
