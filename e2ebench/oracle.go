package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/graphhash"
	"lamps/internal/power"
)

// resultJSON is the part of a /v1/schedule body (and of a sweep cell's
// "result") the oracle compares.
type resultJSON struct {
	Approach string `json:"approach"`
	Key      string `json:"key"`
	NumProcs int    `json:"num_procs"`
	Level    struct {
		Index  int     `json:"index"`
		Vdd    float64 `json:"vdd"`
		FreqHz float64 `json:"freq_hz"`
	} `json:"level"`
	Energy struct {
		TotalJ float64 `json:"total_j"`
	} `json:"energy"`
	Deadline float64 `json:"deadline_sec"`
}

// oracle recomputes responses in process from the same inputs: the digest
// with graphhash.Sum and the answer with core.Engine.Run.
type oracle struct {
	w      *workload
	model  *power.Model
	graphs map[int]*dag.Graph
}

func newOracle(w *workload) *oracle {
	return &oracle{w: w, model: power.Default70nm(), graphs: map[int]*dag.Graph{}}
}

func (o *oracle) graph(i int) (*dag.Graph, error) {
	if g := o.graphs[i]; g != nil {
		return g, nil
	}
	g, err := o.w.graphs[i].build()
	if err != nil {
		return nil, fmt.Errorf("building graph %d: %w", i, err)
	}
	o.graphs[i] = g
	return g, nil
}

// deadline resolves a deadline factor exactly as lampsd does for the
// homogeneous default machine.
func (o *oracle) deadline(g *dag.Graph, factor float64) float64 {
	return factor * float64(g.CriticalPathLength()) / o.model.FMax()
}

// checkResult compares one rendered result with the in-process answer to
// (approach, graph, deadline, maxProcs).
func (o *oracle) checkResult(body []byte, approach string, g *dag.Graph, deadline float64, maxProcs int) error {
	var got resultJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	cfg := core.Config{Model: o.model, Deadline: deadline, MaxProcs: maxProcs}
	key := graphhash.Sum(graphhash.Problem{Graph: g, Model: o.model, Deadline: deadline, MaxProcs: maxProcs, Approach: approach})
	if got.Key != key {
		return fmt.Errorf("key %s, graphhash.Sum gives %s", got.Key, key)
	}
	if got.Deadline != deadline {
		return fmt.Errorf("deadline_sec %v, want %v", got.Deadline, deadline)
	}
	eng := core.Engine{Config: cfg}
	res, err := eng.Run(context.Background(), approach, g)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if got.Approach != res.Approach || got.NumProcs != res.NumProcs || got.Level.Index != res.Level.Index ||
		got.Level.Vdd != res.Level.Vdd || got.Level.FreqHz != res.Level.Freq || got.Energy.TotalJ != res.Energy.Total() {
		return fmt.Errorf("response %s procs=%d level=%d vdd=%v f=%v energy=%v; engine %s procs=%d level=%d vdd=%v f=%v energy=%v",
			got.Approach, got.NumProcs, got.Level.Index, got.Level.Vdd, got.Level.FreqHz, got.Energy.TotalJ,
			res.Approach, res.NumProcs, res.Level.Index, res.Level.Vdd, res.Level.Freq, res.Energy.Total())
	}
	return nil
}

// checkSchedule checks the /v1/schedule response to request r.
func (o *oracle) checkSchedule(r int64, body []byte) error {
	gi := o.w.graphOf(r)
	g, err := o.graph(gi)
	if err != nil {
		return err
	}
	factor, err := strconv.ParseFloat(string(o.w.appendMid(nil, r)), 64)
	if err != nil {
		return fmt.Errorf("request %d deadline factor: %w", r, err)
	}
	if err := o.checkResult(body, scheduleApproach, g, o.deadline(g, factor), 0); err != nil {
		return fmt.Errorf("request %d: %w", r, err)
	}
	return nil
}

// sweepCellLine is one cell line of a /v1/sweep stream.
type sweepCellLine struct {
	Cell *struct {
		Index          int     `json:"index"`
		Approach       string  `json:"approach"`
		DeadlineSec    float64 `json:"deadline_sec"`
		DeadlineFactor float64 `json:"deadline_factor"`
		MaxProcs       int     `json:"max_procs"`
	} `json:"cell"`
	Status int             `json:"status"`
	Result json.RawMessage `json:"result"`
}

// checkSweep checks every cell line of the sweep response to request r has
// a result, and every step-th cell against the engine.
func (o *oracle) checkSweep(r int64, body []byte, step int) error {
	g, err := o.graph(o.w.graphOf(r))
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	if len(lines) != o.w.cells+1 {
		return fmt.Errorf("request %d: %d lines, want %d cells and a summary", r, len(lines), o.w.cells)
	}
	for _, ln := range lines[:len(lines)-1] {
		var c sweepCellLine
		if err := json.Unmarshal(ln, &c); err != nil || c.Cell == nil {
			return fmt.Errorf("request %d: malformed cell line %.120s", r, ln)
		}
		if c.Status != 200 {
			return fmt.Errorf("request %d cell %d: status %d", r, c.Cell.Index, c.Status)
		}
		if c.Cell.Index%step != 0 {
			continue
		}
		if d := o.deadline(g, c.Cell.DeadlineFactor); d != c.Cell.DeadlineSec {
			return fmt.Errorf("request %d cell %d: deadline_sec %v, want %v", r, c.Cell.Index, c.Cell.DeadlineSec, d)
		}
		if err := o.checkResult(c.Result, c.Cell.Approach, g, c.Cell.DeadlineSec, c.Cell.MaxProcs); err != nil {
			return fmt.Errorf("request %d cell %d: %w", r, c.Cell.Index, err)
		}
	}
	return nil
}
