package runtime

// Health is a point-in-time operational snapshot of a pipeline, assembled
// from the fault journal, slot states and the pipeline's telemetry series in
// one call, without a frame to any worker.
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
	// WorkerStats is the per-device activity (tiles, compute seconds), keyed
	// by cluster device index.
	WorkerStats map[int]WorkerStat `json:"worker_stats,omitempty"`
	// KindSeconds is the per-layer-kind kernel seconds of this pipeline's
	// tiles, keyed by cluster device index: the kernel series' sums, which
	// the workers report on every exec reply. Every device with an exec
	// series has every kind, zeros included; emulated-speed top-ups are not
	// in it, so the split shows where the real arithmetic went.
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
// devices, per-device stats, per-kind kernel seconds — in one snapshot. It
// reads only coordinator-side state, so it does no network I/O.
func (p *Pipeline) Health() Health {
	h := Health{Servable: p.Servable(), DownDevices: p.DownDevices()}
	h.FaultEvents, h.FaultsDropped = p.faults.snapshot()
	h.WorkerStats, h.KindSeconds = p.devices()
	return h
}
