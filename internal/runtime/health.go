package runtime

// Health is a point-in-time operational snapshot of a pipeline, assembled
// from the fault journal, slot states and per-device counters in one call.
// It is the payload of picoserve's /healthz endpoint and picorun's
// end-of-run report; the json tags keep it stable for monitoring clients.
type Health struct {
	// Servable reports whether every stage still has at least one live or
	// redialing worker. False means the plan lost a whole stage: new tasks
	// fail fast and the session should be retired or re-planned.
	Servable bool `json:"servable"`
	// FaultEvents is the bounded fault journal (see FaultEvents), and
	// FaultsDropped the overflow count beyond its cap.
	FaultEvents   []FaultEvent `json:"fault_events,omitempty"`
	FaultsDropped int          `json:"faults_dropped,omitempty"`
	// DownDevices are the cluster device indices retired for good.
	DownDevices []int `json:"down_devices,omitempty"`
	// WorkerStats is the coordinator-side per-device activity (tiles,
	// compute seconds), keyed by cluster device index.
	WorkerStats map[int]WorkerStat `json:"worker_stats,omitempty"`
	// KindSeconds is the workers' per-layer-kind kernel-time attribution,
	// keyed by cluster device index. Best-effort: devices whose control
	// connection has died are absent, and a stats round trip that fails
	// entirely leaves the map nil rather than failing the snapshot.
	KindSeconds map[int]map[string]float64 `json:"kind_seconds,omitempty"`
}

// Servable reports whether every stage still has at least one live (or
// redialing) worker. Once a stage has lost all of its devices the pipeline
// can only fail tasks fast, so Servable=false is the signal to retire it.
func (p *Pipeline) Servable() bool {
	for _, sd := range p.cur.Load().stages {
		sd.topoMu.Lock()
		dead := sd.dead
		sd.topoMu.Unlock()
		if dead {
			return false
		}
	}
	return true
}

// Health gathers the pipeline's operational state — fault journal, down
// devices, per-device stats, per-kind compute attribution — in one snapshot,
// so callers stop assembling it from four separate accessors.
func (p *Pipeline) Health() Health {
	h := Health{
		Servable:    p.Servable(),
		DownDevices: p.DownDevices(),
		WorkerStats: p.WorkerStats(),
	}
	h.FaultEvents, h.FaultsDropped = p.faults.snapshot()
	if ks, err := p.WorkerKindSeconds(); err == nil {
		h.KindSeconds = ks
	}
	return h
}
