package main

import (
	"encoding/json"
	"testing"
)

// field must agree with encoding/json on the members the benchmark reads
// of a reply, whatever sits around and inside them.
func TestFieldAgreesWithEncodingJSON(t *testing.T) {
	reply := []byte(`{
  "job": 7,
  "status": "done",
  "result": {
    "graph": "de\"fault",
    "epoch": 42,
    "value": {"1": [1, {"a": "}]"}], "2\\": "x,y", "n": -1.5e3},
    "cached": true,
    "survey": {"value": 3}
  }
}`)
	var want struct {
		Status string
		Result struct {
			Epoch uint64
			Value json.RawMessage
		}
	}
	if err := json.Unmarshal(reply, &want); err != nil {
		t.Fatal(err)
	}
	epoch, value, problem := parseReply(reply)
	if problem != "" {
		t.Fatal(problem)
	}
	if epoch != want.Result.Epoch || string(value) != string(want.Result.Value) {
		t.Errorf("got epoch %d value %s, want %d %s", epoch, value, want.Result.Epoch, want.Result.Value)
	}
	for _, bad := range []string{``, `[1]`, `{"status": "failed", "error": "boom"}`, `{"status": "done", "result": {"epoch": 1}}`, `{"status": "done"`} {
		if _, _, problem := parseReply([]byte(bad)); problem == "" {
			t.Errorf("parseReply(%q) found nothing wrong", bad)
		}
	}
}
