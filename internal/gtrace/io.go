package gtrace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteJSON serializes the whole trace (config, utilization matrix,
// jobs) so external tools can plot it or so a trace can be archived and
// re-analyzed later. A trace keeps no task records (see Trace), so there
// is no Tasks key; ReadJSON ignores the one older files carry.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// ReadJSON loads a trace previously written with WriteJSON — or one
// converted from the real Google cluster trace by external tooling; the
// analyses in this package run on it unchanged.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("gtrace: decoding trace: %w", err)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// validate checks structural invariants of a loaded trace.
func (t *Trace) validate() error {
	if len(t.Util) == 0 {
		return fmt.Errorf("gtrace: trace has no servers")
	}
	bins := len(t.Util[0])
	for s, series := range t.Util {
		if len(series) == 0 {
			return fmt.Errorf("gtrace: server %d has no bins", s)
		}
		if len(series) != bins {
			return fmt.Errorf("gtrace: server %d has %d bins, want %d", s, len(series), bins)
		}
		for b, u := range series {
			if u < 0 || u > 1 {
				return fmt.Errorf("gtrace: utilization out of range at [%d][%d]: %v", s, b, u)
			}
		}
	}
	for i, j := range t.Jobs {
		if j.Tasks < 1 || j.ReadSeconds <= 0 || j.LeadSeconds < 0 {
			return fmt.Errorf("gtrace: job %d invalid: %+v", i, j)
		}
	}
	return nil
}

// WriteUtilizationCSV emits one row per (server, bin): server index,
// bin index, utilization.
func (t *Trace) WriteUtilizationCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"server", "bin", "utilization"}); err != nil {
		return err
	}
	for s, series := range t.Util {
		for b, u := range series {
			rec := []string{
				strconv.Itoa(s),
				strconv.Itoa(b),
				strconv.FormatFloat(u, 'f', 6, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJobsCSV emits one row per job: tasks, lead seconds, read seconds.
func (t *Trace) WriteJobsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"tasks", "lead_seconds", "read_seconds"}); err != nil {
		return err
	}
	for _, j := range t.Jobs {
		rec := []string{
			strconv.Itoa(j.Tasks),
			strconv.FormatFloat(j.LeadSeconds, 'f', 4, 64),
			strconv.FormatFloat(j.ReadSeconds, 'f', 4, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
