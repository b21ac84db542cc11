package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/repair"
	"repro/internal/shapley"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// chunkUnits hides a game's shapley.RandomnessFree declaration while
// keeping its walk, so SampleAll schedules it by whole chunks: the
// reference the permutation schedule must reproduce.
type chunkUnits struct{ shapley.IncrementalGame }

// TestPermutationUnitsMatchChunkUnits: SampleAll over a null-policy cell,
// relevant-cell or group game schedules single permutations across
// workers, and must return bit for bit what the chunk schedule returns,
// for every budget (one chunk, a short last chunk, many chunks) and every
// worker count. A column-sampling explain keeps the chunk schedule; its
// answer is pinned by a golden file.
func TestPermutationUnitsMatchChunkUnits(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	// C1-C3 leave Year and Place unmentioned, so the relevant cells are a
	// strict subset of the cells.
	exp, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs[:3], ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	cell := ll.CellOfInterest
	target, repaired, err := exp.Target(ctx, cell)
	if err != nil || !repaired {
		t.Fatalf("target: repaired %v, err %v", repaired, err)
	}
	for _, players := range []Players{CellPlayers, RelevantCellPlayers, RowPlayers} {
		r, err := exp.roster(Query{Cell: cell, Players: players})
		if err != nil {
			t.Fatal(err)
		}
		game := exp.game(cell, target, &r, ReplaceWithNull, false).(shapley.IncrementalGame)
		if rf, ok := game.(shapley.RandomnessFree); !ok || !rf.DrawsNoRandomness() {
			t.Fatalf("players %d: the null-policy game does not declare itself randomness-free", players)
		}
		for _, samples := range []int{1, 3, 4, 5, 16, 17, 400} {
			want, err := shapley.SampleAll(ctx, chunkUnits{game}, shapley.Options{Samples: samples, Seed: 11, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got, err := shapley.SampleAll(ctx, game, shapley.Options{Samples: samples, Seed: 11, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				sameEstimates(t, fmt.Sprintf("players %d, samples %d, workers %d", players, samples, workers), got, want)
			}
		}
	}

	if exp.NewCellGame(cell, target, ReplaceFromColumn).DrawsNoRandomness() {
		t.Fatal("the column-sampling game declares itself randomness-free")
	}
	rep, err := exp.ExplainCells(ctx, cell, CellExplainOptions{Samples: 24, Seed: 3, Workers: 3, Policy: ReplaceFromColumn})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range rep.Entries {
		fmt.Fprintf(&b, "%s %s %s %d\n", e.Name, strconv.FormatFloat(e.Shapley, 'g', -1, 64), strconv.FormatFloat(e.CI95, 'g', -1, 64), e.Samples)
	}
	path := filepath.Join("testdata", "explain-cells-from-column.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(golden) {
		t.Fatalf("column-sampling explain changed:\n got:\n%s\nwant:\n%s", b.String(), golden)
	}
}
