package server_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/server"
	"lamps/internal/taskgen"
)

// The golden corpus pins /v1/schedule response bodies — and with them the
// result digests ("key"), operating points, energies, placements and Stats —
// for a fixed grid of problems. It is the regression oracle of the machine
// model: any change to the kernels, the gap profiles or the engine's search
// must reproduce these bytes exactly. The files are committed; this test
// only compares against them and never rewrites them.
//
// Each corpus file holds two lines per case: a header
//
//	# <case> status=<code> len=<bytes> sha256=<hex>
//
// followed by the response body itself (without its trailing newline, if
// any). The header's length and hash cover the exact bytes on the wire.

// goldenGraphs returns the corpus graphs: the paper's Fig. 4a example and
// three coarse-grain graphs (synthetic stand-ins for the STG robot and
// fpppp graphs, and one 160-task taskgen suite member).
func goldenGraphs(t *testing.T) []*dag.Graph {
	t.Helper()
	b := dag.NewBuilder("fig4a")
	for _, w := range []int64{2, 6, 4, 4, 2} {
		b.AddTask(w)
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}} {
		b.AddEdge(e[0], e[1])
	}
	fig4a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	member, err := taskgen.Member(160, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	var out []*dag.Graph
	for _, g := range []*dag.Graph{fig4a, taskgen.Robot(), taskgen.Fpppp(), member.Rename("member160")} {
		s, err := g.ScaleWeights(taskgen.CoarseGrainCycles)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// graphSpec renders g in the request's inline graph form.
func graphSpec(g *dag.Graph) map[string]any {
	tasks := make([]map[string]any, g.NumTasks())
	var edges [][2]int
	for v := range tasks {
		tasks[v] = map[string]any{"weight_cycles": g.Weight(v)}
		for _, s := range g.Succs(v) {
			edges = append(edges, [2]int{v, int(s)})
		}
	}
	return map[string]any{"name": g.Name(), "tasks": tasks, "edges": edges}
}

type goldenCase struct {
	name string
	req  map[string]any
}

// goldenCases enumerates the grid for one graph: all six approaches,
// deadline factors {1.5, 2, 4, 8}, max_procs {0, 3} and K ∈ {0, 1} on the
// default homogeneous machine, plus the same approaches, factors and K on
// the LP×3 + HP×1 heterogeneous platform (max_procs 0).
func goldenCases(t *testing.T, g *dag.Graph) []goldenCase {
	t.Helper()
	spec := graphSpec(g)
	var cases []goldenCase
	add := func(machine, approach string, factor float64, maxProcs, k int, platform json.RawMessage) {
		req := map[string]any{
			"approach":        approach,
			"graph":           spec,
			"deadline_factor": factor,
		}
		if maxProcs > 0 {
			req["max_procs"] = maxProcs
		}
		if k > 0 {
			req["faults"] = map[string]any{"k": k}
		}
		if platform != nil {
			req["platform"] = platform
		}
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("%s/%s/f=%g/max_procs=%d/k=%d", machine, approach, factor, maxProcs, k),
			req:  req,
		})
	}
	approaches := []string{"ss", "lamps", "ss+ps", "lamps+ps", "limit-sf", "limit-mf"}
	factors := []float64{1.5, 2, 4, 8}
	for _, approach := range approaches {
		for _, factor := range factors {
			for _, maxProcs := range []int{0, 3} {
				for _, k := range []int{0, 1} {
					add("homogeneous", approach, factor, maxProcs, k, nil)
				}
			}
		}
	}
	platform := requestPlatformJSON(t)
	for _, approach := range approaches {
		for _, factor := range factors {
			for _, k := range []int{0, 1} {
				add("lp3hp1", approach, factor, 0, k, platform)
			}
		}
	}
	return cases
}

// goldenRecord is one served case: status and exact body bytes.
type goldenRecord struct {
	name   string
	status int
	body   []byte
}

func (r goldenRecord) header() string {
	sum := sha256.Sum256(r.body)
	return fmt.Sprintf("# %s status=%d len=%d sha256=%s", r.name, r.status, len(r.body), hex.EncodeToString(sum[:]))
}

// serveGolden runs every case of g through a fresh server, serially.
func serveGolden(t *testing.T, g *dag.Graph) []goldenRecord {
	t.Helper()
	h := server.New(server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler()
	var out []goldenRecord
	for _, c := range goldenCases(t, g) {
		payload, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(payload)))
		out = append(out, goldenRecord{name: c.name, status: w.Code, body: w.Body.Bytes()})
	}
	return out
}

func goldenPath(g *dag.Graph) string {
	return filepath.Join("testdata", "golden", g.Name()+".txt")
}

// readGolden parses a committed corpus file into header and body lines.
func readGolden(t *testing.T, path string) (headers, bodies []string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# ") {
			headers = append(headers, line)
			continue
		}
		bodies = append(bodies, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(headers) != len(bodies) {
		t.Fatalf("%s: %d headers for %d bodies", path, len(headers), len(bodies))
	}
	return headers, bodies
}

func TestGoldenScheduleCorpus(t *testing.T) {
	for _, g := range goldenGraphs(t) {
		t.Run(g.Name(), func(t *testing.T) {
			headers, bodies := readGolden(t, goldenPath(g))
			got := serveGolden(t, g)
			if len(got) != len(headers) {
				t.Fatalf("%d cases served, corpus has %d", len(got), len(headers))
			}
			bad := 0
			for i, r := range got {
				if h := r.header(); h != headers[i] {
					bad++
					if bad <= 5 {
						t.Errorf("case %d:\n got  %s\n want %s\n got body  %s\n want body %s",
							i, h, headers[i], bytes.TrimSuffix(r.body, []byte("\n")), bodies[i])
					}
					continue
				}
				if string(bytes.TrimSuffix(r.body, []byte("\n"))) != bodies[i] {
					bad++
					t.Errorf("case %s: body matches its header hash but not the committed body line", r.name)
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d cases differ from %s", bad, len(got), goldenPath(g))
			}
		})
	}
}
