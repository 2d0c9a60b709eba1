package tnf_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"icpic3/internal/benchmarks"
	"icpic3/internal/expr"
	"icpic3/internal/tnf"
	"icpic3/internal/ts"
)

// goldenSteps is the unrolling depth of TestCompileGolden.
const goldenSteps = 6

// compileUnrolled compiles sys the way kind and ic3 do: steps 0..n, Init
// asserted at step 0, Trans@k and Prop@k asserted, the plain and robust
// violation literals ¬Prop@k and ¬Weaken(Prop@k) compiled at every step,
// then Simplify and a post-Simplify compile of Init@0 and ¬Prop@0 (ic3
// adds those to its simplified main system).
func compileUnrolled(sys *ts.System, n int) (*tnf.System, error) {
	const tol = 0.02 // 2 * kind's default validation tolerance
	s := tnf.NewSystem()
	if _, err := sys.DeclareStep(s, 0); err != nil {
		return nil, err
	}
	if err := s.Assert(ts.AtStep(sys.Init, 0)); err != nil {
		return nil, err
	}
	for k := 0; k <= n; k++ {
		if k < n {
			if _, err := sys.DeclareStep(s, k+1); err != nil {
				return nil, err
			}
			if err := s.Assert(ts.AtStep(sys.Trans, k)); err != nil {
				return nil, err
			}
			if err := s.Assert(ts.AtStep(sys.Prop, k)); err != nil {
				return nil, err
			}
		}
		if _, err := s.CompileBool(expr.Not(ts.AtStep(sys.Prop, k))); err != nil {
			return nil, err
		}
		if _, err := s.CompileBool(expr.Not(expr.Weaken(ts.AtStep(sys.Prop, k), tol))); err != nil {
			return nil, err
		}
	}
	s.Simplify()
	if _, err := s.CompileBool(ts.AtStep(sys.Init, 0)); err != nil {
		return nil, err
	}
	if _, err := s.CompileBool(expr.Not(ts.AtStep(sys.Prop, 0))); err != nil {
		return nil, err
	}
	return s, nil
}

// renderTNF prints every variable (name, integrality, aux flag, exact
// domain bounds), constraint and clause of s in order.
func renderTNF(s *tnf.System) string {
	var b strings.Builder
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for i, v := range s.Vars {
		fmt.Fprintf(&b, "v%d %s int=%t aux=%t [%s, %s]\n",
			i, s.VarName(tnf.VarID(i)), v.Integer, v.Aux, g(v.Domain.Lo), g(v.Domain.Hi))
	}
	for _, c := range s.Cons {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	for _, c := range s.Clauses {
		for i, l := range c {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(l.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// compileGolden pins the SHA-256 of renderTNF(compileUnrolled(m, 6)) for
// every model of benchmarks.Suite(4).  The compiled system fixes every
// solver's search, so a compiler change that is meant to keep the search
// must keep these digests; one that changes the encoding on purpose
// updates them and says so.
var compileGolden = map[string]string{
	"poly-safe-0":         "67c63e11414291e658a6cfe175addd21ea2a67a48178b9c02f614deece2456a9",
	"poly-safe-1":         "2b3bf05e15a462533c84cdd0176bbd66fa8b4c047fe1d941eff77253ee5a713b",
	"poly-safe-2":         "2cfea66a3cfae37863279dda1442b54063ec4cbd92a9b2041a02721d1b65597e",
	"poly-safe-3":         "db014d7878713db80a3e192495ab1ebd0382d0f847b766c8a9c0a8beb2db625e",
	"poly-unsafe-0":       "40ead6b68fd931b7ea880a29b0f0cc3b4741ae8f8b2c238995ac6ce2d3d166eb",
	"poly-unsafe-1":       "86334df112904c8d584ab346b45c3c468c217a233a6d79069ecc93a20788efa0",
	"poly-unsafe-2":       "d4bfe2eb41d29b75c2d7c1453a0e344e98df1cdaae8b23735a30d2cab0830edc",
	"poly-unsafe-3":       "5c8af7fe943813e3f5013755aadf426bd274851115a570f603a34870e934e8f4",
	"logistic-safe-0":     "61461652a104c36ab86b05609ca77bbced4a1f87a146a10f5caf3b065d96d291",
	"logistic-safe-1":     "862e1013fae646a1df4064a597b0c15b5eda7aa2008f0b56729b8f22d8b976b4",
	"logistic-safe-2":     "8cc914a545578fa3cc406f267005fa37eec3e769a12cd315925d13bcc5184fc1",
	"logistic-safe-3":     "08f734b7d06021618fee7b3215f41010300ec41d22557f91d337641a9774e771",
	"logistic-unsafe-0":   "73c6a192741257dba91b6b790207f97d6bbcb863f8be97b12eb250967693b653",
	"logistic-unsafe-1":   "f2ba1bd5905fc56b666dfc07efef2d425cb718707beb80570ec29296837b65f3",
	"logistic-unsafe-2":   "6611b298cbc2bc7959e75b54bd78fe2b1134371f949e89fd9a0d2f5e4563a45b",
	"logistic-unsafe-3":   "49460106cbcc8a7715234c087e10f0fc5489457f3e78e9db38bd3b72d4fcada9",
	"vehicle-safe-0":      "98db9299c3fee560433bfc576a8f29af53477d659b09249b9f35f4660855d6c2",
	"vehicle-safe-1":      "439ed4f6859e1ea18eab03b163d43f25adbb11ce62630e5fc2f3c8e2fc48996b",
	"vehicle-safe-2":      "da2092bb023231e00dc9014c0d676f8acd48e3db33020d49574c3743d3a98729",
	"vehicle-safe-3":      "98db9299c3fee560433bfc576a8f29af53477d659b09249b9f35f4660855d6c2",
	"vehicle-unsafe-0":    "bb87a9dc56c9da901e9736e08c3d3b3d3e7342743a99459e62881c387e63aac0",
	"vehicle-unsafe-1":    "ea154395ffa6b0d71f4eb19a49c502053c613d1a6044b513f34a5fa1ad5c6c40",
	"vehicle-unsafe-2":    "1f2756cf5036fef1b963b8330ecaae18fb86ba4ca12e51f537efefc927fc588d",
	"vehicle-unsafe-3":    "bb87a9dc56c9da901e9736e08c3d3b3d3e7342743a99459e62881c387e63aac0",
	"thermostat-safe-0":   "979606957a8f55c5a8035d220a086143860205b5e799f70f4c1a8a7cb6b8cfbb",
	"thermostat-safe-1":   "b0875b21ce0d48d67031ce99e4fac5eef6774e0bc79d0083f93c980457e43b4c",
	"thermostat-safe-2":   "3f59aacd39ae694a57448abe675c8d481c404e63dcfc5f70bf36b7b311c4f1fb",
	"thermostat-safe-3":   "979606957a8f55c5a8035d220a086143860205b5e799f70f4c1a8a7cb6b8cfbb",
	"thermostat-unsafe-0": "135f75aacae5ca58038c0f226a80d37492d3ad18d1811dc73979417b98ccf3ee",
	"thermostat-unsafe-1": "d391dd7f3bf43514469e37ce536f15a995d2dd15a1f4e851f13518f03e9dea70",
	"thermostat-unsafe-2": "1e0e231437908defa1dc9047748753315642560dc836e3156623f6a750f9da9f",
	"thermostat-unsafe-3": "135f75aacae5ca58038c0f226a80d37492d3ad18d1811dc73979417b98ccf3ee",
	"pendulum-safe-0":     "4bcb7ce192e6375ea213b50960820dcf1390bb0b1a3e84b7218ee06fd7d19ebf",
	"pendulum-safe-1":     "f7e1a6d22c7a7b2b8412f222614f850f8e047cd80c016ba74bdb8c1fb979f7ee",
	"pendulum-safe-2":     "0dcb42629a2e1c10ad002a864030d6e3c4db3ff25e7abcd55740146a9b8ad0ba",
	"pendulum-safe-3":     "7c9f62fe0d556f5297c1b06169a57d42129d1f622d80127f013eb629fb4d6af0",
	"pendulum-unsafe-0":   "88546a12135311903acb5943b3e572a63f176dd309b020974ec05d55d50a4b84",
	"pendulum-unsafe-1":   "9b9ab8b7e20359b85dadd8068d9b730987a60a570d7455083c3c1efe07e4652a",
	"pendulum-unsafe-2":   "396f0043fec69a4ec96b16fb0a29c8919b99e22031b2dbf703c2808e466cb135",
	"pendulum-unsafe-3":   "4c2e95731ebfba17de9397266f1a69587fd6d48dd0fe446241eb366a4d273eac",
	"counternl-safe-0":    "398cac1dd4052556d1c74224ed098482bb4ce74673508ec7a3c42cac13bb7edb",
	"counternl-safe-1":    "60ede334b8c98a18c284cbb04d58a04c4f54eb5178ccc52c9d6f9a7737f48146",
	"counternl-safe-2":    "4c4658cbe791b09dd0d960a5b2a48043df4e85de2506b7b6d68fbd3a7ee770df",
	"counternl-safe-3":    "398cac1dd4052556d1c74224ed098482bb4ce74673508ec7a3c42cac13bb7edb",
	"counternl-unsafe-0":  "ef66aa3649c6d0f6e159e630b6314280f14159f530b9e9392e801747487bf18e",
	"counternl-unsafe-1":  "f7b23e55e6a017a1cea51bc23a41a7a9f2fa99ada09a6ef778921207628535b4",
	"counternl-unsafe-2":  "0cf0adbc14aa6c8a8551b70f36455e09dc64f3c692d9a252b428e4ecf6a41feb",
	"counternl-unsafe-3":  "ef66aa3649c6d0f6e159e630b6314280f14159f530b9e9392e801747487bf18e",
	"frozen-safe-0":       "f495d8487694f68808e360f1f9363c4d423a1fc0fa37904cdeb22e76f7c54959",
	"frozen-safe-1":       "7c8b1d018a7deab98ccaf6967abb9f569579c6e9a5ff5edb69df1a6b2cd083a4",
	"frozen-safe-2":       "3cfae70feed160f64b64526d701d92bcbc7fd28b657d3671caaafa2f3fc53f33",
	"frozen-safe-3":       "f495d8487694f68808e360f1f9363c4d423a1fc0fa37904cdeb22e76f7c54959",
	"frozen-unsafe-0":     "2fe772abe6aed54589b94c80a3f647dcf1a29075b0df5b7b3cd6da01d1711fb0",
	"frozen-unsafe-1":     "607fd01da3b694d2d15ae6ac50de18c2409c1a5d106d2d7f7f6afb03b3f51374",
	"frozen-unsafe-2":     "d673ed782e006e7aa11715a208007db6e6ab1dbdd4ca826cb3ff32b0662d1633",
	"frozen-unsafe-3":     "2fe772abe6aed54589b94c80a3f647dcf1a29075b0df5b7b3cd6da01d1711fb0",
	"ops":                 "b1162047bf34c720160e9202532a933148c6643fb4bb49c75ffae20ba7cfc7f9",
}

// opsModel uses every arithmetic and Boolean operator the compiler
// knows, an arithmetic ite among them (no benchmark family has one),
// repeated subterms and both signed zeros.
const opsModel = `
system ops
var x : real [-2, 2]
var y : real [0.5, 3]
var n : int [-5, 5]
var b : bool
init x >= -0 and x <= 0 and y = 1 and n = 0 and !b
trans x' = ite(b, x / y - sin(x) * cos(x), min(x, y) + max(x, -y)) and \
      y' = sqrt(y) + exp(-abs(x)) / 4 + log(y) * atan(x) + tanh(x)^2 and \
      n' = ite(n >= 5, -5, n + 1) and \
      (b' <-> (n' != 0 and x' > tan(x / 4))) and \
      (b -> x^3 + x^3 < 9) and (x = 0 or n < 3)
prop x^2 + y^2 <= 20 and (b or ite(x < 0, -x, x) <= 2)
`

func TestCompileGolden(t *testing.T) {
	suite, err := benchmarks.Suite(4)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := ts.Parse(opsModel)
	if err != nil {
		t.Fatal(err)
	}
	suite = append(suite, benchmarks.Instance{Name: "ops", Sys: ops})
	for _, in := range suite {
		s, err := compileUnrolled(in.Sys, goldenSteps)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		sum := sha256.Sum256([]byte(renderTNF(s)))
		got := hex.EncodeToString(sum[:])
		if want := compileGolden[in.Name]; got != want {
			t.Errorf("%q: %q, // want %q", in.Name, got, want)
		}
	}
}
