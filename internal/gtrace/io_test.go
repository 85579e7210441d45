package gtrace

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func smallTrace() *Trace {
	cfg := DefaultConfig()
	cfg.Servers = 3
	cfg.Duration = time.Hour
	cfg.Jobs = 20
	return Generate(cfg)
}

func TestJSONRoundTrip(t *testing.T) {
	tr := smallTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Util) != len(tr.Util) || len(back.Jobs) != len(tr.Jobs) {
		t.Fatalf("shape lost: %d/%d servers, %d/%d jobs",
			len(back.Util), len(tr.Util), len(back.Jobs), len(tr.Jobs))
	}
	if back.MeanUtilization() != tr.MeanUtilization() {
		t.Errorf("mean util changed: %v vs %v", back.MeanUtilization(), tr.MeanUtilization())
	}
	if back.FractionLeadCoversRead() != tr.FractionLeadCoversRead() {
		t.Error("job analysis changed after round trip")
	}
}

// TestJSONHasNoTasks: a trace keeps no task records, so its JSON has no
// Tasks key, and a file written while it did still loads.
func TestJSONHasNoTasks(t *testing.T) {
	var buf bytes.Buffer
	if err := smallTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"Tasks": [`) {
		t.Error("trace JSON has a Tasks key")
	}
	old := `{"Cfg":{},"Tasks":[[{"Start":0,"End":60,"IOSeconds":6}]],"Util":[[0.1]],"Jobs":[{"Tasks":1,"LeadSeconds":1,"ReadSeconds":1}]}`
	tr, err := ReadJSON(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Util) != 1 || len(tr.Jobs) != 1 {
		t.Errorf("old trace loaded %d servers and %d jobs, want 1 and 1", len(tr.Util), len(tr.Jobs))
	}
}

// TestReadJSONValidation: each invalid trace is rejected with an error
// that names what is wrong. A server with no bins used to load and
// render its mean utilization as NaN.
func TestReadJSONValidation(t *testing.T) {
	cases := map[string]struct{ in, want string }{
		"garbage":       {"{not json", "decoding trace"},
		"no servers":    {`{"Cfg":{},"Util":[],"Jobs":[]}`, "no servers"},
		"no bins":       {`{"Cfg":{},"Util":[[]],"Jobs":[]}`, "server 0 has no bins"},
		"later no bins": {`{"Util":[[0.1],[]],"Jobs":[]}`, "server 1 has no bins"},
		"ragged":        {`{"Util":[[0.1,0.2],[0.3]],"Jobs":[]}`, "server 1 has 1 bins, want 2"},
		"util range":    {`{"Util":[[1.5]],"Jobs":[]}`, "utilization out of range"},
		"negative lead": {`{"Util":[[0.1]],"Jobs":[{"Tasks":1,"LeadSeconds":-1,"ReadSeconds":1}]}`, "job 0 invalid"},
	}
	for name, tc := range cases {
		if _, err := ReadJSON(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadJSON = %v, want error containing %q", name, err, tc.want)
		}
	}
}

func TestUtilizationCSV(t *testing.T) {
	tr := smallTrace()
	var buf bytes.Buffer
	if err := tr.WriteUtilizationCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := 1 + 3*12 // header + servers*bins
	if len(lines) != want {
		t.Fatalf("csv lines = %d, want %d", len(lines), want)
	}
	if lines[0] != "server,bin,utilization" {
		t.Errorf("header = %q", lines[0])
	}
}

func TestJobsCSVRoundTrip(t *testing.T) {
	tr := smallTrace()
	var buf bytes.Buffer
	if err := tr.WriteJobsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(tr.Jobs) || strings.Join(rows[0], ",") != "tasks,lead_seconds,read_seconds" {
		t.Fatalf("csv = %d rows under header %q, want %d", len(rows), rows[0], 1+len(tr.Jobs))
	}
	for i, j := range tr.Jobs {
		row := rows[i+1]
		if row[0] != strconv.Itoa(j.Tasks) {
			t.Fatalf("job %d tasks %q, want %d", i, row[0], j.Tasks)
		}
		// Floats round-tripped at 4 decimal places.
		if lead, err := strconv.ParseFloat(row[1], 64); err != nil || math.Abs(lead-j.LeadSeconds) > 1e-3 {
			t.Fatalf("job %d lead %q, want %v", i, row[1], j.LeadSeconds)
		}
	}
}
