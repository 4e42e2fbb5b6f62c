package api

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// decodeSeeds are bodies inside (the first inSubset) and just outside
// the schema decoder's subset: every kind of input it hands to
// encoding/json has one.
const inSubset = 9

var decodeSeeds = []string{
	`{"instance":{"budget":9,"queries":[{"props":["wooden","table"],"utility":8},{"props":["running","shoes"],"utility":5}],` +
		`"costs":[{"props":["wooden"],"cost":4},{"props":["table"],"cost":2},{"props":["x"],"cost":0,"inf":true}],` +
		`"default_cost":{"cost":1,"per_prop":0.5}},"algo":"gmc3","budget":5,"target":3.5,"seed":-7,"deadline_ms":20,` +
		`"no_cache":true,"include_plan":false,"warm_plan":[["wooden"],["table","wooden"],[]]}`,
	` { "instance" : { "queries" : [ { "utility" : 1 , "props" : [ "日本" , "é" ] } ] } , "seed" : 0 } ` + "\n",
	`{"instance":{"budget":1,"queries":[]},"warm_plan":[]}`,
	`{"instance":{"queries":[{"props":[]},{}],"costs":[{}]},"budget":-0}`,
	`{"instance":{},"budget":1.5e-3,"target":1E+2}`,
	`{}`,
	`{"deadline_ms":-0}`,
	`{"target":123456789012345678}`,
	`{"target":-9007199254740993}`,
	`{"instance":{"queries":[{"props":["a"],"utility":1}]}}{"algo":"gmc3"}`,
	`{"instance":{"queries":[{"props":["a"],"utility":1}]}} x`,
	`{"Instance":{"queries":[{"props":["a"],"utility":1}]}}`,
	`{"instance":{"queries":[{"PROPS":["a"],"utility":1}]}}`,
	`{"algo":"abcc","algo":"ig1"}`,
	`{"instance":{"queries":[{"props":["a"],"props":["b"],"utility":1}]}}`,
	`{"instance":null}`,
	`{"instance":{"queries":[{"props":null,"utility":1}]}}`,
	`{"budget":null}`,
	`{"instance":{"queries":[{"props":["a\"b"],"utility":1}]}}`,
	`{"instance":{"queries":[{"props":["\u0061"],"utility":1}]}}`,
	`{"algo":"ab\tc"}`,
	"{\"instance\":{\"queries\":[{\"props\":[\"\xff\xfe\"],\"utility\":1}]}}",
	`{"seed":1.0}`,
	`{"seed":1e3}`,
	`{"seed":99999999999999999999}`,
	`{"target":0x10}`,
	`{"target":1_000}`,
	`{"target":Inf}`,
	`{"target":01}`,
	`{"target":.5}`,
	`{"target":1.}`,
	`{"target":1e}`,
	`{"target":-}`,
	`{"target":+1}`,
	`{"target":1e400}`,
	`{"no_cache":1}`,
	`{"no_cache":tru}`,
	`{"include_plan":truex}`,
	`{"unknown":1}`,
	`{"instance":{"queries":[{"props":["a"],"utility":"1"}]}}`,
	`{"warm_plan":[["a"],null]}`,
	`[]`,
	`"x"`,
	``,
	`{`,
	`{"instance":{"queries":[{"props":["a"],"utility":1},]}}`,
	"\ufeff{}",
}

// FuzzDecodeSolveRequest holds the schema decoder to encoding/json:
// a body it accepts decodes to a SolveRequest reflect.DeepEqual to
// encoding/json's, nil and empty slices alike, and DecodeBody answers
// every body exactly as the encoding/json path does.
func FuzzDecodeSolveRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	quickstart, err := os.ReadFile("../../examples/instances/quickstart.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"instance":` + string(quickstart) + `,"include_plan":true}`))
	drift, err := json.Marshal(SolveRequest{
		Instance: dataset.ToFormat(dataset.PrivateSubset(3, 40, 30)),
		Algo:     "abcc", Seed: 7, IncludePlan: true,
		WarmPlan: [][]string{{"c0_p0"}, {"c0_p1", "c0_p0"}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(drift)
	f.Fuzz(func(t *testing.T, body []byte) {
		var oracle SolveRequest
		oracleErr := decodeJSON(body, &oracle)
		var fast SolveRequest
		if decodeSolveRequest(body, &fast) {
			if oracleErr != nil {
				t.Fatalf("schema decoder accepted what encoding/json rejects (%v): %q", oracleErr.Msg, body)
			}
			if !reflect.DeepEqual(fast, oracle) {
				t.Fatalf("decodes differ for %q:\nschema: %#v\njson:   %#v", body, fast, oracle)
			}
		}
		var got SolveRequest
		apiErr := DecodeBody(body, &got)
		switch {
		case (apiErr == nil) != (oracleErr == nil):
			t.Fatalf("DecodeBody error %v, encoding/json %v, for %q", apiErr, oracleErr, body)
		case apiErr != nil:
			if apiErr.Code != oracleErr.Code || apiErr.Msg != oracleErr.Msg {
				t.Fatalf("DecodeBody answered %d %q, encoding/json %d %q", apiErr.Code, apiErr.Msg, oracleErr.Code, oracleErr.Msg)
			}
		case !reflect.DeepEqual(got, oracle):
			t.Fatalf("DecodeBody result differs from encoding/json's for %q", body)
		}
	})
}

// Seeds inside the subset must take the schema path; the others must
// not, or the fuzz target would compare encoding/json with itself.
func TestSchemaDecoderSubset(t *testing.T) {
	for i, s := range decodeSeeds {
		var req SolveRequest
		handled := decodeSolveRequest([]byte(s), &req)
		if want := i < inSubset; handled != want {
			t.Errorf("seed %d %q: schema decoder handled=%v, want %v", i, s, handled, want)
		}
	}
	var req SolveRequest
	if !decodeSolveRequest([]byte(`{"instance":{},"budget":-0}`), &req) || !math.Signbit(*req.Budget) {
		t.Error("-0 lost its sign")
	}
}

// Anything but whitespace after the request's JSON value is a 400 on
// either decode path; the newline json.Encoder writes is whitespace.
func TestDecodeBodyRejectsTrailingBytes(t *testing.T) {
	const value = `{"instance":{"budget":1,"queries":[{"props":["a"],"utility":1}]},"seed":3}`
	for _, tail := range []string{`{"algo":"gmc3"}`, ` trailing garbage`, "\n]", `,`} {
		var req SolveRequest
		apiErr := DecodeBody([]byte(value+tail), &req)
		if apiErr == nil || apiErr.Code != 400 || !strings.HasPrefix(apiErr.Msg, "decoding request: ") {
			t.Errorf("tail %q: got %v, want a 400 decoding request error", tail, apiErr)
		}
		var batch BatchRequest
		if apiErr := DecodeBody([]byte(`{"requests":[`+value+`]}`+tail), &batch); apiErr == nil {
			t.Errorf("batch with tail %q decoded", tail)
		}
	}
	for _, tail := range []string{"", "\n", " \t\r\n "} {
		var req SolveRequest
		if apiErr := DecodeBody([]byte(value+tail), &req); apiErr != nil || req.Seed != 3 {
			t.Errorf("tail %q: %v, seed %d", tail, apiErr, req.Seed)
		}
	}
}
