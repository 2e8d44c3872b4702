package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/partition"
)

// planFile is the on-disk JSON form of a Plan: fully self-contained (model
// geometry, cluster profile, stage assignments), so a coordinator can plan
// once and redeploy the same pipeline later or on another host.
type planFile struct {
	Version int         `json:"version"`
	Model   modelFile   `json:"model"`
	Cluster clusterFile `json:"cluster"`
	Stages  []stageFile `json:"stages"`
	Period  float64     `json:"period_seconds"`
	Latency float64     `json:"latency_seconds"`
	// Quantized marks int8-costed plans; absent (false) in files written by
	// older builds, which were all float32.
	Quantized bool `json:"quantized,omitempty"`
}

type modelFile struct {
	Name   string     `json:"name"`
	Input  nn.Shape   `json:"input"`
	Layers []nn.Layer `json:"layers"`
}

type clusterFile struct {
	Devices      []cluster.Device `json:"devices"`
	BandwidthBps float64          `json:"bandwidth_bps"`
}

type stageFile struct {
	From      int               `json:"from"`
	To        int               `json:"to"`
	DeviceIdx []int             `json:"device_idx"`
	Parts     []partition.Range `json:"parts"`
	// Cols is absent for row-strip stages, so files without tiles are
	// byte-identical to what older builds wrote.
	Cols []partition.Range `json:"cols,omitempty"`
}

// SavePlanFile writes the plan to the file at path, as SavePlan does.
func SavePlanFile(path string, p *Plan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SavePlan(f, p); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// planFileVersion guards against loading plans from incompatible builds.
const planFileVersion = 1

// SavePlan writes the plan as self-contained JSON.
func SavePlan(w io.Writer, p *Plan) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("core: refusing to save invalid plan: %w", err)
	}
	pf := planFile{
		Version:   planFileVersion,
		Model:     modelFile{Name: p.Model.Name, Input: p.Model.Input, Layers: p.Model.Layers},
		Cluster:   clusterFile{Devices: p.Cluster.Devices, BandwidthBps: p.Cluster.BandwidthBps},
		Period:    p.PeriodSeconds,
		Latency:   p.LatencySeconds,
		Quantized: p.Quantized,
	}
	for _, st := range p.Stages {
		pf.Stages = append(pf.Stages, stageFile{
			From: st.From, To: st.To,
			DeviceIdx: st.DeviceIdx, Parts: st.Parts, Cols: st.Cols,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pf); err != nil {
		return fmt.Errorf("core: encode plan: %w", err)
	}
	return nil
}

// LoadPlan reads a plan saved by SavePlan, revalidates it and recomputes the
// period/latency aggregates from the embedded cluster profile (so a stale
// file cannot smuggle wrong numbers).
func LoadPlan(r io.Reader) (*Plan, error) {
	var pf planFile
	if err := json.NewDecoder(r).Decode(&pf); err != nil {
		return nil, fmt.Errorf("core: decode plan: %w", err)
	}
	if pf.Version != planFileVersion {
		return nil, fmt.Errorf("core: plan file version %d, want %d", pf.Version, planFileVersion)
	}
	m := &nn.Model{Name: pf.Model.Name, Input: pf.Model.Input, Layers: pf.Model.Layers}
	c := &cluster.Cluster{Devices: pf.Cluster.Devices, BandwidthBps: pf.Cluster.BandwidthBps}
	cm, err := CostModelFor(m, c, Options{Quantized: pf.Quantized})
	if err != nil {
		return nil, fmt.Errorf("core: plan file: %w", err)
	}
	stages := make([]Stage, len(pf.Stages))
	for i, st := range pf.Stages {
		stages[i] = Stage{
			From: st.From, To: st.To,
			DeviceIdx: st.DeviceIdx, Parts: st.Parts, Cols: st.Cols,
		}
	}
	plan, err := NewPlan(cm, stages)
	if err != nil {
		return nil, fmt.Errorf("core: plan file stages: %w", err)
	}
	// A subnormal capacity or bandwidth passes the profile's checks but
	// prices a stage at Inf or NaN seconds, which no plan file can hold.
	if !finite(plan.PeriodSeconds) || !finite(plan.LatencySeconds) {
		return nil, fmt.Errorf("core: plan file prices to period %v s, latency %v s", plan.PeriodSeconds, plan.LatencySeconds)
	}
	return plan, nil
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
