package core

import (
	"pico/internal/partition"
)

// adaptToHeterogeneity implements Algorithm 2: keep the homogeneous plan's
// model segments and worker counts, then place the real heterogeneous
// devices. Devices are visited fastest-first; each is assigned to the open
// stage with the highest remaining average computing requirement
// Θ'_{i→j} / |D'_{i→j}| (the neediest stage). Once a stage's worker slots
// fill, its output strips are re-balanced for the actual device speeds with
// the divide-and-conquer search (partition.Balanced).
func adaptToHeterogeneity(cm *CostModel, homStages []homStage) []Stage {
	type openStage struct {
		hs        homStage
		need      float64 // Θ'_{i→j}: total work of the homogeneous stage
		remaining int     // open worker slots
		devices   []int
	}
	open := make([]*openStage, len(homStages))
	for i, hs := range homStages {
		outH := cm.M.OutShape(hs.To - 1).H
		parts := partition.Equal(outH, hs.Workers)
		open[i] = &openStage{
			hs:        hs,
			need:      cm.SegmentWork(hs.From, hs.To, parts),
			remaining: hs.Workers,
		}
	}

	// Fastest devices first (Algorithm 2 line 3).
	order := cm.C.SortedBySpeed()
	for _, di := range order {
		// Pick the open stage with the maximum remaining per-slot
		// requirement (Algorithm 2 line 5; the text assigns the strongest
		// device to the most demanding stage).
		var pick *openStage
		best := -1.0
		for _, os := range open {
			if os.remaining == 0 {
				continue
			}
			avg := os.need / float64(os.remaining)
			if avg > best {
				best = avg
				pick = os
			}
		}
		if pick == nil {
			break // more devices than slots: the rest idle
		}
		pick.devices = append(pick.devices, di)
		// The assigned device satisfies a proportional share of the need.
		pick.need -= pick.need / float64(pick.remaining)
		pick.remaining--
	}

	stages := make([]Stage, 0, len(open))
	for _, os := range open {
		speeds := cm.DeviceSpeeds(os.devices)
		parts := cm.Calc.Balanced(os.hs.From, os.hs.To, speeds)
		stages = append(stages, Stage{
			From: os.hs.From, To: os.hs.To,
			DeviceIdx: os.devices,
			Parts:     parts,
		})
	}
	return stages
}
