package dc

import (
	"fmt"
	"testing"

	"repro/internal/table"
)

// benchTable builds an n-row two-league soccer-like table with a sprinkle
// of violations.
func benchTable(n int) *table.Table {
	grid := make([][]string, n)
	for i := range grid {
		league := fmt.Sprintf("L%d", i%2)
		country := fmt.Sprintf("Country%d", i%2)
		if i%17 == 0 {
			country = "Dirty"
		}
		grid[i] = []string{fmt.Sprintf("Team%d", i), fmt.Sprintf("City%d", i), country, league}
	}
	return table.MustFromStrings([]string{"Team", "City", "Country", "League"}, grid)
}

func BenchmarkViolationsNaive(b *testing.B) {
	c := MustParse("!(t1.League = t2.League & t1.Country != t2.Country)")
	for _, n := range []int{32, 128, 512} {
		tbl := benchTable(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Violations(tbl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkViolationsIndexed(b *testing.B) {
	c := MustParse("!(t1.Team = t2.Team & t1.City != t2.City)")
	for _, n := range []int{32, 128, 512} {
		tbl := benchTable(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.AppendViolations(tbl, NewScanIndex(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBucketScanKernelVsInterpreted isolates the pair-check inner
// loop on one shared bucket list: the compiled columnar kernel against the
// interpreted SatisfiedPair, same pairs, same table.
func BenchmarkBucketScanKernelVsInterpreted(b *testing.B) {
	c := MustParse("!(t1.League = t2.League & t1.Country != t2.Country)")
	tbl := benchTable(512)
	rows := make([]int, 0, 256)
	for i := 0; i < tbl.NumRows(); i += 2 {
		rows = append(rows, i) // every even row: one league's bucket
	}
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hits := 0
			for _, r := range rows {
				for _, s := range rows {
					if r == s {
						continue
					}
					sat, err := c.SatisfiedPair(tbl, r, s)
					if err != nil {
						b.Fatal(err)
					}
					if sat {
						hits++
					}
				}
			}
		}
	})
	b.Run("kernel", func(b *testing.B) {
		kern, err := compileKernel(c, tbl.Schema())
		if err != nil {
			b.Fatal(err)
		}
		alive := make([]bool, len(rows))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hits := 0
			for n, r := range rows {
				for m := range alive {
					alive[m] = m != n
				}
				kern.Filter(tbl, 0, r, rows, alive)
				for _, a := range alive {
					if a {
						hits++
					}
				}
			}
		}
	})
}

// BenchmarkLiveViolationEdit measures the per-edit steady state of the
// live set against re-scanning every intra-bucket pair per query.
func BenchmarkLiveViolationEdit(b *testing.B) {
	c := MustParse("!(t1.League = t2.League & t1.Country != t2.Country)")
	tbl := benchTable(512)
	countryCol := tbl.Schema().MustIndex("Country")
	vals := [2]table.Value{table.String("Country0"), table.String("Flip")}
	b.Run("scan-cache", func(b *testing.B) {
		ix := NewScanIndex()
		if _, err := c.AppendViolations(tbl, ix, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tbl.Set(3, countryCol, vals[i%2])
			if _, err := c.AppendViolations(tbl, ix, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("live", func(b *testing.B) {
		live := NewLiveViolationSet()
		if _, err := live.Violations(c, tbl); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tbl.Set(3, countryCol, vals[i%2])
			if _, err := live.Violations(c, tbl); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkParse(b *testing.B) {
	const src = "C4: !(t1.Team != t2.Team & t1.Year = t2.Year & t1.League = t2.League & t1.Place = t2.Place)"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViolatesRow(b *testing.B) {
	c := MustParse("!(t1.League = t2.League & t1.Country != t2.Country)")
	tbl := benchTable(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.ViolatesRow(tbl, i%256); err != nil {
			b.Fatal(err)
		}
	}
}
