package pipemem

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// wallClockRow starts the one experiment row measured in host time (X6's
// sequential switching rate); its Measured cell is masked before the
// comparison.
const wallClockRow = "| aggregate switching rate"

// TestExperiments runs every registry entry at Quick scale, requires every
// row's check to hold, and pins the rendered table byte for byte against
// testdata/experiments-quick.md. The simulations are deterministic, so a
// refactor that moves any measured number fails here. Regenerate the golden
// with
//
//	go run ./cmd/pmexp -ext -md > testdata/experiments-quick.md
//
// Under -short the simulation-heavy experiments skip.
func TestExperiments(t *testing.T) {
	golden, err := os.ReadFile("testdata/experiments-quick.md")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var goldenIDs []string
	starts := regexp.MustCompile(`(?m)^### `).FindAllStringIndex(string(golden), -1)
	for i, s := range starts {
		end := len(golden)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		sec := string(golden[s[0]:end])
		id, _, _ := strings.Cut(strings.TrimPrefix(sec, "### "), " ")
		want[id] = sec
		goldenIDs = append(goldenIDs, id)
	}

	exps := Experiments()
	var ids []string
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	if !slices.Equal(ids, goldenIDs) || len(want) != len(ids) {
		t.Fatalf("registry ids %v, golden sections %v: want the same ids, once each, in the same order", ids, goldenIDs)
	}

	slow := map[string]bool{"E1": true, "E2": true, "E3": true, "E4": true, "E5": true,
		"X3": true, "X4": true, "X5": true, "X6": true}
	for _, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			if e.Title == "" || e.Ref == "" || e.Run == nil {
				t.Fatalf("%s incomplete: %+v", e.ID, e)
			}
			if testing.Short() && slow[e.ID] {
				t.Skip("simulation-heavy; run without -short")
			}
			res, err := e.Run(Quick)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Pass() {
				t.Errorf("checks failed:\n%s", res)
			}
			if got, exp := maskWallClock(res.Markdown()), maskWallClock(want[e.ID]); got != exp {
				t.Errorf("table moved from testdata/experiments-quick.md\ngot:\n%s\nwant:\n%s", got, exp)
			}
		})
	}
}

// maskWallClock blanks the Measured cell of the wall-clock row.
func maskWallClock(md string) string {
	lines := strings.Split(md, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, wallClockRow) {
			cells := strings.Split(l, " | ")
			cells[len(cells)-2] = "(wall clock)"
			lines[i] = strings.Join(cells, " | ")
		}
	}
	return strings.Join(lines, "\n")
}
