package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeCampaigns are the campaigns CI's avgcampaign, fleet and chaos
// smokes submit (.github/workflows/ci.yml).
var smokeCampaigns = []string{
	`{"name":"ci-smoke","scenarios":[
  {"name":"rand","spec":{"graph":"cycle","algorithm":"mis/luby","trials":2,"seed":7,
    "sweep":{"param":"n","values":[32,48,64,96,128]}},
    "hypothesis":{"measure":"node_avg","expect":"log","compare_to":"det","op":"le","ratio":10}},
  {"name":"det","spec":{"graph":"cycle","algorithm":"mis/det-coloring","trials":1,"seed":7,
    "sweep":{"param":"n","values":[32,48,64,96,128]}}}
]}`,
	`{"name":"fleet-smoke","scenarios":[
  {"name":"rand","spec":{"graph":"cycle","algorithm":"mis/luby","trials":24,"seed":7,
    "sweep":{"param":"n","values":[128,256,384]}},
    "hypothesis":{"measure":"node_avg","expect":"log","compare_to":"det","op":"le","ratio":10}},
  {"name":"det","spec":{"graph":"cycle","algorithm":"mis/det-coloring","trials":8,"seed":7,
    "sweep":{"param":"n","values":[128,256,384]}}}
]}`,
	`{"name":"chaos-smoke","scenarios":[
  {"name":"rand","spec":{"graph":"cycle","algorithm":"mis/luby","trials":24,"seed":11,
    "sweep":{"param":"n","values":[128,256,384]}},
    "hypothesis":{"measure":"node_avg","expect":"log"}}
]}`,
}

// FuzzParse: Parse never panics, and every document it accepts round-trips:
// re-marshalled, it parses again to a campaign with the same encoding. (The
// encoding, not reflect.DeepEqual: an empty "params" object and an absent
// one are the same spec, and omitempty folds them.)
func FuzzParse(f *testing.F) {
	for _, name := range []string{"paper.json", "experiments.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "campaigns", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, doc := range smokeCampaigns {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal accepted campaign: %v", err)
		}
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("re-marshalled campaign rejected: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(second) {
			t.Fatalf("campaign changed across a round trip:\n%s\n%s", first, second)
		}
	})
}
