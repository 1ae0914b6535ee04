package main

import (
	"net/url"
	"reflect"
	"strings"
	"testing"
)

func TestGenerateIsAPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, err := Generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans for seed 7 differ", w)
		}
		c, _ := Generate(w, 8)
		if reflect.DeepEqual(a.Requests, c.Requests) {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", w)
		}
		if len(a.Requests) == 0 || len(a.Prime) == 0 || a.Traced <= 0 {
			t.Errorf("%s: empty plan", w)
		}
	}
	if _, err := Generate("nope", 1); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

// template strips a request down to what stratification fixes: class,
// key and run shape, without the per-request draws.
func template(t *testing.T, r Request) string {
	path, raw, _ := strings.Cut(r.Path, "?")
	q, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, drawn := range []string{"src", "dst", "seed", "fseed", "fmode"} {
		q.Del(drawn)
	}
	return r.Class + " " + path + "?" + q.Encode()
}

// TestGenerateIsStratified pins that a seed changes the order and the
// per-request draws but never the mix of endpoints, keys and run shapes.
func TestGenerateIsStratified(t *testing.T) {
	for _, w := range workloadNames {
		mixes := make([]map[string]int, 2)
		for i, seed := range []int64{1, 99} {
			p, _ := Generate(w, seed)
			mixes[i] = map[string]int{}
			for _, r := range p.Requests {
				mixes[i][template(t, r)]++
			}
		}
		if !reflect.DeepEqual(mixes[0], mixes[1]) {
			t.Errorf("%s: the request mix depends on the seed", w)
		}
	}
}

func TestPlansAreWellFormed(t *testing.T) {
	for _, w := range workloadNames {
		p, _ := Generate(w, 3)
		for _, list := range [][]Request{p.Prime, p.Requests} {
			for _, r := range list {
				if r.Class == "healthz" {
					if r.Key != -1 || r.Path != "/healthz" {
						t.Errorf("%s: bad healthz request %+v", w, r)
					}
					continue
				}
				if r.Key < 0 || r.Key >= len(p.Keys) || !strings.Contains(r.Path, "?"+p.Keys[r.Key].Query) {
					t.Errorf("%s: request %+v does not name its key", w, r)
				}
			}
		}
	}
}

// The cold sequence must cycle its keys in one fixed order: with a cache
// smaller than the cycle, that order makes every request an LRU miss.
func TestColdCyclesOneOrder(t *testing.T) {
	p, _ := Generate("cold", 5)
	n := len(p.Keys)
	for i, r := range p.Requests {
		if r.Path != p.Prime[i%n].Path {
			t.Fatalf("request %d is %s, want %s", i, r.Path, p.Prime[i%n].Path)
		}
	}
}
