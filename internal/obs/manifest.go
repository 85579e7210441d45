// Package obs writes the run manifest: what exactly ran (seed, flags,
// build, schema versions, wall and virtual time, peak memory), which
// every CLI can write next to its outputs.
//
// The manifest is deliberately OUTSIDE the deterministic core: its wall
// clock reads live here (under audited lint waivers) so the
// simulation's own packages stay virtual-time pure. No simulation
// result may ever depend on a value produced here.
package obs

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"dyrs/internal/sim"
)

// ManifestSchema versions the run-manifest document.
const ManifestSchema = "dyrs-manifest/v1"

// Manifest records what one CLI run was: enough to re-run it (tool,
// seed, flags), place it (git revision, Go version, host OS/arch), and
// size it (wall time, virtual time, peak RSS). Schemas maps artifact
// kinds the run produced to their schema versions, so a reader can
// check compatibility before parsing siblings.
type Manifest struct {
	Schema       string            `json:"schema"`
	Tool         string            `json:"tool"`
	Seed         int64             `json:"seed"`
	Flags        map[string]string `json:"flags,omitempty"`
	GitSHA       string            `json:"git_sha,omitempty"`
	GitDirty     bool              `json:"git_dirty,omitempty"`
	GoVersion    string            `json:"go_version"`
	OS           string            `json:"os"`
	Arch         string            `json:"arch"`
	StartedAt    string            `json:"started_at"` // RFC3339, wall clock
	WallSeconds  float64           `json:"wall_seconds"`
	VirtualNS    int64             `json:"virtual_ns"`
	PeakRSSBytes int64             `json:"peak_rss_bytes"`
	Schemas      map[string]string `json:"schemas,omitempty"`

	start time.Time
}

// NewManifest starts a manifest for the named tool, capturing the wall
// start time and build identity.
func NewManifest(tool string) *Manifest {
	m := &Manifest{
		Schema:    ManifestSchema,
		Tool:      tool,
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		start:     time.Now(), //lint:walltime run manifest measures real elapsed time
	}
	m.StartedAt = m.start.UTC().Format(time.RFC3339)
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitSHA = s.Value
			case "vcs.modified":
				m.GitDirty = s.Value == "true"
			}
		}
	}
	return m
}

// CaptureFlags records every flag's effective value (defaults included)
// from the given flag set.
func (m *Manifest) CaptureFlags(fs *flag.FlagSet) {
	m.Flags = make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) {
		m.Flags[f.Name] = f.Value.String()
	})
}

// AddSchema records that the run produced an artifact kind with the
// given schema version ("trace" -> "dyrs-trace/v2").
func (m *Manifest) AddSchema(kind, version string) {
	if m.Schemas == nil {
		m.Schemas = make(map[string]string)
	}
	m.Schemas[kind] = version
}

// Finish stamps the run's end-of-life measurements: elapsed wall time,
// the final virtual clock, and peak RSS.
func (m *Manifest) Finish(virtual sim.Time) {
	m.WallSeconds = time.Now().Sub(m.start).Seconds() //lint:walltime run manifest measures real elapsed time
	m.VirtualNS = int64(virtual)
	m.PeakRSSBytes = peakRSSBytes()
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(m)
}

// peakRSSBytes reports the process's peak resident set. On Linux it
// reads VmHWM from /proc/self/status (the kernel's high-water mark);
// elsewhere it falls back to the Go runtime's view of memory obtained
// from the OS, which overstates RSS but is monotone and portable.
func peakRSSBytes() int64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}
