package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/taskgen"
)

// The extension golden corpus pins the per-task DVS and voltage-island
// extensions — energy breakdown, employed processors and search effort —
// on the homogeneous default machine and on the LP×3 + HP×1 platform. The
// uniform-frequency heuristics are pinned end to end by the serving
// layer's /v1/schedule corpus (internal/server/testdata/golden); these
// two extensions are not served, so they are pinned here. The committed
// file is only compared against, never rewritten.

// goldenExtRecord is one corpus line. Stats are spelled out field by field
// so the file does not depend on the Stats struct's shape.
type goldenExtRecord struct {
	Case            string            `json:"case"`
	Err             string            `json:"err,omitempty"`
	NumProcs        int               `json:"num_procs,omitempty"`
	MakespanSec     float64           `json:"makespan_sec,omitempty"`
	Energy          *energy.Breakdown `json:"energy,omitempty"`
	SchedulesBuilt  int               `json:"schedules_built,omitempty"`
	LevelsEvaluated int               `json:"levels_evaluated,omitempty"`
}

func goldenExtGraphs(t *testing.T) []*dag.Graph {
	t.Helper()
	member, err := taskgen.Member(160, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	out := []*dag.Graph{buildFig4a(t, coarseWeight)}
	for _, g := range []*dag.Graph{taskgen.Robot(), taskgen.Fpppp(), member.Rename("member160")} {
		s, err := g.ScaleWeights(coarseWeight)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// goldenExtRecords runs both extensions, with and without PS, over the
// corpus grid: every graph, deadline factors {1.5, 2, 4, 8}, max_procs
// {0, 3} on the homogeneous machine and max_procs 0 on the platform.
func goldenExtRecords(t *testing.T) []goldenExtRecord {
	t.Helper()
	pf := heteroTestPlatform(t)
	m := power.Default70nm()
	var out []goldenExtRecord
	for _, g := range goldenExtGraphs(t) {
		for _, factor := range []float64{1.5, 2, 4, 8} {
			type machine struct {
				name string
				cfg  Config
			}
			var machines []machine
			for _, maxProcs := range []int{0, 3} {
				cfg := DeadlineFactor(g, m, factor)
				cfg.MaxProcs = maxProcs
				machines = append(machines, machine{fmt.Sprintf("homogeneous/max_procs=%d", maxProcs), cfg})
			}
			machines = append(machines, machine{"lp3hp1/max_procs=0", DeadlineFactorPlatform(g, pf, factor)})
			for _, mc := range machines {
				for _, ps := range []bool{false, true} {
					prefix := fmt.Sprintf("%s/f=%g/%s/ps=%v", g.Name(), factor, mc.name, ps)

					rec := goldenExtRecord{Case: prefix + "/" + ApproachPerTask}
					if r, err := SlackReclaimDVS(g, mc.cfg, ps); err != nil {
						rec.Err = err.Error()
					} else {
						rec.NumProcs, rec.MakespanSec, rec.Energy = r.NumProcs, r.MakespanSec(), &r.Energy
						rec.SchedulesBuilt, rec.LevelsEvaluated = r.Stats.SchedulesBuilt, r.Stats.LevelsEvaluated
					}
					out = append(out, rec)

					rec = goldenExtRecord{Case: prefix + "/" + ApproachIslands}
					if r, err := VoltageIslands(g, mc.cfg, ps); err != nil {
						rec.Err = err.Error()
					} else {
						rec.NumProcs, rec.MakespanSec, rec.Energy = r.NumProcs, r.MakespanSec(), &r.Energy
						rec.SchedulesBuilt, rec.LevelsEvaluated = r.Stats.SchedulesBuilt, r.Stats.LevelsEvaluated
					}
					out = append(out, rec)
				}
			}
		}
	}
	return out
}

const goldenExtPath = "testdata/golden_extensions.ndjson"

func TestGoldenExtensionsCorpus(t *testing.T) {
	f, err := os.Open(filepath.FromSlash(goldenExtPath))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenExtRecords(t)
	if len(got) != len(want) {
		t.Fatalf("%d cases computed, corpus has %d", len(got), len(want))
	}
	bad := 0
	for i, rec := range got {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(line) != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("case %d:\n got  %s\n want %s", i, line, want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d cases differ from %s", bad, len(got), goldenExtPath)
	}
}
