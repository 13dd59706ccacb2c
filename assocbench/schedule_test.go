package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"assocmine/internal/serve"
)

func ops(seed uint64, client, n int) []request {
	s := newSchedule(seed, client, 8192)
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestScheduleIsSeeded(t *testing.T) {
	if a, b := ops(3, 1, 500), ops(3, 1, 500); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(ops(3, 1, 500), ops(4, 1, 500)) {
		t.Fatal("two seeds gave the same schedule")
	}
	if reflect.DeepEqual(ops(3, 0, 500), ops(3, 1, 500)) {
		t.Fatal("two clients got the same schedule")
	}
}

func TestScheduleMix(t *testing.T) {
	want := map[string]int{}
	for _, k := range blockMix {
		switch k {
		case "pairs-low", "pairs-high":
			k = "pairs"
		case "similarity", "confidence":
			k = "expr"
		}
		want[k] += 10
	}
	got := map[string]int{}
	for _, r := range ops(9, 1, 10*len(blockMix)) {
		got[r.Endpoint]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ten blocks of client 1 hold %v, want %v", got, want)
	}
	for i, r := range ops(9, 0, 5*appendEvery) {
		if (r.Endpoint == "append") != ((i+1)%appendEvery == 0) {
			t.Fatalf("client 0 op %d is %q", i+1, r.Endpoint)
		}
	}
}

func TestScheduleBodiesAreValidRequests(t *testing.T) {
	for _, r := range ops(5, 1, 400) {
		var dst any
		switch r.Endpoint {
		case "pairs":
			dst = &serve.PairsRequest{}
		case "topk":
			dst = &serve.TopKRequest{}
		case "toppairs":
			dst = &serve.TopPairsRequest{}
		case "expr":
			dst = &serve.ExprRequest{}
		default:
			t.Fatalf("unexpected endpoint %q", r.Endpoint)
		}
		if err := json.Unmarshal([]byte(r.Body), dst); err != nil {
			t.Fatalf("%s %s: %v", r.Endpoint, r.Body, err)
		}
	}
}
