package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/machsim"
	"repro/internal/service"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

var updateGolden = flag.Bool("update-golden", false, "print the current golden digests as Go source instead of checking them")

// goldenModes are the annealing strategies whose served bytes are pinned.
// "warm" seeds every packet from the single run's placement at structural
// distance 0.25, the cache-as-a-prior path of delta requests.
var goldenModes = []string{"single", "restarts", "cooperative", "tempering", "warm"}

func goldenOptions(mode string, seed int64, single *machsim.Result) core.Options {
	opt := core.DefaultOptions()
	opt.Seed = seed
	switch mode {
	case "restarts":
		opt.Restarts = 4
	case "cooperative":
		opt.Restarts = 4
		opt.Cooperative = true
	case "tempering":
		opt.Restarts = 4
		opt.Tempering = true
	case "warm":
		opt.Warm = &core.WarmStart{Assignment: append([]int(nil), single.Proc...), Distance: 0.25}
	}
	return opt
}

// goldenBody is the exact response body the service serves for one solve:
// service.ResultFromSim marshalled with plain json.Marshal.
func goldenBody(t *testing.T, g *taskgraph.Graph, topo *topology.Topology, opt core.Options) ([]byte, *machsim.Result) {
	t.Helper()
	comm := topology.DefaultCommParams()
	sched, err := core.NewScheduler(g, topo, comm, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machsim.Run(machsim.Model{Graph: g, Topo: topo, Comm: comm}, sched, machsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := service.ResultFromSim(res, g, topo.Name())
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	return body, res
}

// TestGoldenBodies pins the served bytes of the SA scheduler: the SHA-256
// of every body for the four paper programs × three Table 2 machines ×
// three seeds × five annealing modes. Any change to an annealing decision,
// an RNG draw or a cost rounding moves some digest, so a speed-up that
// claims bit-identical output is checked here rather than on makespans.
// Regenerate (only for an intended change of results) with
//
//	go test ./internal/core -run TestGoldenBodies -update-golden
func TestGoldenBodies(t *testing.T) {
	got := map[string]string{}
	for _, prog := range []string{"NE", "GJ", "FFT", "MM"} {
		g, err := cliutil.BuildProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"hypercube:3", "bus:8", "ring:9"} {
			topo, err := cliutil.ParseTopology(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 7, 1991} {
				var single *machsim.Result
				for _, mode := range goldenModes {
					body, res := goldenBody(t, g, topo, goldenOptions(mode, seed, single))
					if mode == "single" {
						single = res
					}
					sum := sha256.Sum256(body)
					got[fmt.Sprintf("%s/%s/%d/%s", prog, spec, seed, mode)] = hex.EncodeToString(sum[:])
				}
			}
		}
	}
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("golden digests:\n%s", b.String())
		return
	}
	if len(got) != len(goldenDigests) {
		t.Errorf("computed %d digests, table has %d", len(got), len(goldenDigests))
	}
	for k, want := range goldenDigests {
		if got[k] != want {
			t.Errorf("%s: body sha256 %s, want %s", k, got[k], want)
		}
	}
}

// goldenDigests maps each case to its body's SHA-256. A change that claims
// identical output must leave every entry untouched.
var goldenDigests = map[string]string{
	"FFT/bus:8/1/cooperative":          "8e5a01e7ab64cead8177fe2bb92c7ab24226b60b7f1f651d0423ec944eb42ce6",
	"FFT/bus:8/1/restarts":             "b3cebf520b3fdc06dac17a5fccdec07067b8d11cdd7902d1ee79a13a6f2a10e8",
	"FFT/bus:8/1/single":               "76df10c48554c72d6a4be58815b95855b50070260441b7c51711d86bbb5c9b7c",
	"FFT/bus:8/1/tempering":            "7fd8d87d1fdd0bd0a7c93fe8cbef3e5f9e2ac84fd012aee5a46ad63b9dc48da8",
	"FFT/bus:8/1/warm":                 "39d085cebc2b6abaeb4ceea62277038d70168b5612c86164b9ff46a426a1a8e8",
	"FFT/bus:8/1991/cooperative":       "a2085dd908fe296d327644461e1385914fc7d7c74913165c78f7ac06db1b2b8b",
	"FFT/bus:8/1991/restarts":          "9e1a75eee4acb83469851e7a5c061d3431a945ff407d2d3339a1c081fb5d4f28",
	"FFT/bus:8/1991/single":            "d36177edae2df744f91fc4fad1ccce6f4f8b5462122d5d93120cf360a73e6197",
	"FFT/bus:8/1991/tempering":         "681a333d8ba276346854442d1f6dae950de660b0566449efe458847ce9880184",
	"FFT/bus:8/1991/warm":              "b2da2a4b648ebf1c5ca41ef92762319185d5177b88ac9ea8092f95a740978fff",
	"FFT/bus:8/7/cooperative":          "d81500e036d622a625e77bed5f848783d35faeeb316ab28d1c552b3f9defe6da",
	"FFT/bus:8/7/restarts":             "d296e12ce58ac64740f9f0ed48731fb3f21992ad5f9143ad101ec16c2954e801",
	"FFT/bus:8/7/single":               "6ae07ef6d3d1fea37b4adf7cccd5c4ffc7ee9b9751b526bce404ecdda8f41cfb",
	"FFT/bus:8/7/tempering":            "4c070087b58293d398af8b8ecb1def371aa751fc3f3aba2c0dc7e2161d2b5c7b",
	"FFT/bus:8/7/warm":                 "1702d0061fb330b87d2e0bf6ff9d566dfe55e3b08dcf98a04d175813d5a21f53",
	"FFT/hypercube:3/1/cooperative":    "600c87a0678fba0232156587b50ad40f1f0a928102a208325c5fae47dc7a5e0f",
	"FFT/hypercube:3/1/restarts":       "6dad5882c4d43d8396adbf386afa4db43298a39bc5d862c16ebeeee07fa66b70",
	"FFT/hypercube:3/1/single":         "3adec981aa8ac7cd310273c0e2ac2d8158f8fbded72774726a026dd0b1863782",
	"FFT/hypercube:3/1/tempering":      "6553149c5ed0d910823310a58b93f5f8fc3c38117f51a7fd35da19cf29d12fb7",
	"FFT/hypercube:3/1/warm":           "c56451acf40ddb11ab07a8be6fdc159a5fee1f7cf685ad86e9e2b4d438c2c20c",
	"FFT/hypercube:3/1991/cooperative": "294ad15da42e0c7db004d134aae4cb60019259d802b23dbabceedfd1af46aed5",
	"FFT/hypercube:3/1991/restarts":    "740222d49381b020a7e7f19a79f28e20864b0e630752680002c569f25e113a8c",
	"FFT/hypercube:3/1991/single":      "201d445bcaf4344480a88e442e25e44838cbdf6f8eb1f393b8be896ad2c58154",
	"FFT/hypercube:3/1991/tempering":   "522189b8d10512e21ec025851902c5e031a1bff1be7816599f6c8a9181f807e5",
	"FFT/hypercube:3/1991/warm":        "1750965e9298707fa8f063025e5e5f17443010ebe991b26bdb92575febfc2565",
	"FFT/hypercube:3/7/cooperative":    "11b90ee55e43e50d30970e3309f9e09a9a14be32d1c03ee10f70d512a09fc106",
	"FFT/hypercube:3/7/restarts":       "a2a9c53454a4ad078d2ee321144379e1f2fafc16fdcc2e35bb022b2d0ce0a58d",
	"FFT/hypercube:3/7/single":         "0f6f57635465413eb8a282a15bf267e54e0d6406a0820653b3690bac76e7d0a1",
	"FFT/hypercube:3/7/tempering":      "7499b38032ead7529d889a54aea3047a8a5bd89636122d26119c9e8caf1b29db",
	"FFT/hypercube:3/7/warm":           "2ce0561e9710c76ee67bd11d3773d93ffc26fef4e827db8ab0540034a1c0d29b",
	"FFT/ring:9/1/cooperative":         "d7620b6a5893bc470fee9ca01027b5efcfbed260f1e8f6a8504e31155bb2aa5b",
	"FFT/ring:9/1/restarts":            "fd6b928e0855d475734e5f6b503d1d9a54749a9e093c7672f6c8280e968f3e39",
	"FFT/ring:9/1/single":              "b4bae30c7930d7237ebdb495e4bc5bc5a0e8a9058854b6ea136427424945894c",
	"FFT/ring:9/1/tempering":           "cd9a1b8224be3a69152dcdd9f17158efc5d781e19c5f3649c244587f54881c52",
	"FFT/ring:9/1/warm":                "36b5900cf71098e39d8f077a9155b63a3680f68d2682c97af7b25c713bb6c4e2",
	"FFT/ring:9/1991/cooperative":      "d94f6d32167415e25010e342e960a8364e40923f31ae321d7d16e6f766760abf",
	"FFT/ring:9/1991/restarts":         "c5f85591350e16fad545748cea8c5a57eee8fa47dcb0d9abf16d483e120b4296",
	"FFT/ring:9/1991/single":           "d20a5c8f1283e7674ba10f2cad82df9339dbc3511c5c245f6faf6766d2e70c6a",
	"FFT/ring:9/1991/tempering":        "41d06cd2d5bdd42a9ddb08c7394cd2c9bb4b7277cb483463fdea8ceb85e39651",
	"FFT/ring:9/1991/warm":             "e485aea9ee1bdfa7b02ad714026cdeb5b25bdf888ddd2389a7e6493fa029fdaa",
	"FFT/ring:9/7/cooperative":         "1ad17da93f529083af67a16d8e1981ea02c140579f238d9eb2ab82094cebeb91",
	"FFT/ring:9/7/restarts":            "44faa9141d181692a5a8bd200962f515bfaf0e410faa3ab594e226bccbb3aa75",
	"FFT/ring:9/7/single":              "6a41c1bd2457f5555acedc6bcb414da2c2df1432e56298710d70513b79d63af5",
	"FFT/ring:9/7/tempering":           "504e8990b1ee42968df7bd1de0e881bb59bb905d25204c1951939cf6f4746065",
	"FFT/ring:9/7/warm":                "04e2de54937324c548c78aabc1c8746ea0ed67c6ae93eae77d4ad197fb4bbbca",
	"GJ/bus:8/1/cooperative":           "6663bb9413adb0e2b6e81c9d8a598459be842ea340a63fa2e4a4eac5c16e25ee",
	"GJ/bus:8/1/restarts":              "d7933c045297983a00e04b9159b0848f30f83060f70ec5130c0c7602ce26006e",
	"GJ/bus:8/1/single":                "bf1b1b5c1692f033acbb390366a015eff6d3814dac92697dad9e49430211c974",
	"GJ/bus:8/1/tempering":             "1ed997c8d0a614a169694a562ab3bb4c9964b3c3546954680c534b9411f5ef08",
	"GJ/bus:8/1/warm":                  "5be28c9a509024e2c457a687b63f34cc73165e15b2c14277662daf75ad2caf0e",
	"GJ/bus:8/1991/cooperative":        "35d642b5929cb18de5e5a54d2f21b1bb1ac83d29501f39c033067b6096a04a4d",
	"GJ/bus:8/1991/restarts":           "478322e6addc4e4ea307ca805848f86c8237d44bbbc5285e75c535c329fcea1b",
	"GJ/bus:8/1991/single":             "e38e791e29fdda44aa7ffc3b8f24c45ca630b1eead017851c7da5c8223bc430f",
	"GJ/bus:8/1991/tempering":          "b71cf9063916359a9456bdd672591285ae56d18cfb5a5cc25f9c76933137b9dc",
	"GJ/bus:8/1991/warm":               "105d6c496ce900e96bb3a8a8ac5c4846ebfe780343dbc985f206b5b452678eed",
	"GJ/bus:8/7/cooperative":           "be2fd4d5c86c837b0baf93fae07b5e7fa568fb8588d70e9ca965a52e00af6499",
	"GJ/bus:8/7/restarts":              "2e2f2241409aea9cd209275d61513c7b4c06aa61e504aabb5caa9129d0804376",
	"GJ/bus:8/7/single":                "c9a6cb9f588d9d729f000763c95c0e51dea19eb41185b04985c6902d616fea52",
	"GJ/bus:8/7/tempering":             "9a0053f5baee79e7d058fbd8c4d584a4c297b6e299a23607e6b9ee18de7f24e2",
	"GJ/bus:8/7/warm":                  "13523686de65b590e2893298ad790e7cd38e0af4c31cb5155b165b63f3ca1570",
	"GJ/hypercube:3/1/cooperative":     "443e0f18ddfd75a1a7d77af4c272f47889c36368af857935aee31d27a177344d",
	"GJ/hypercube:3/1/restarts":        "f9b529b3dd2dd2437efe94ecc47582fa5067e5bea84cb9d00eb3e4630cc0509a",
	"GJ/hypercube:3/1/single":          "e14fb45d1194fe020c7287bb8b7f389056d0f34738a372a8bddf7bce0966e81e",
	"GJ/hypercube:3/1/tempering":       "b229cb29a06af02b04d7dc9dac4e93988d59cab17a6afd03c1d4130a832031e6",
	"GJ/hypercube:3/1/warm":            "ad5a148e78b203f216e7c4d0c56a9aee0eac5f0bf2387c3239ebdb829c809331",
	"GJ/hypercube:3/1991/cooperative":  "fbdbdd5ab0557aa2505515591e4e27c4729e54c23a9ded962f0d05a364aeba8a",
	"GJ/hypercube:3/1991/restarts":     "6bd2a6538c9d9a6c8d4108305564da9e7aff6083560c9ad268415234686e8f30",
	"GJ/hypercube:3/1991/single":       "e20fe3160954855de069d60e7812195a499517901353af82933ea5cd10766bb3",
	"GJ/hypercube:3/1991/tempering":    "1bb0c57295c186469149049df2d1af83c1ec8edaccaa10a6fb0495fbe7c3985a",
	"GJ/hypercube:3/1991/warm":         "f9744da0a347423b804112ae9504d1c82a576e012d4112ea2d2b5e567fee2a94",
	"GJ/hypercube:3/7/cooperative":     "58437669f395542cfd26d6c024c565124c0f212bd3bf320bd6315a0b0b47b3d8",
	"GJ/hypercube:3/7/restarts":        "6373cd622c4822457fec0fcbc21046f6d1dfde56132968fa2d2327fa5e247089",
	"GJ/hypercube:3/7/single":          "fb868301fe0beb32000343a03e00d5512b997b246a950cf8dd104853bad251fb",
	"GJ/hypercube:3/7/tempering":       "5af57667e5ebc0a711c10d527654859961dd4f77e86adeca8e61ff73b9f02565",
	"GJ/hypercube:3/7/warm":            "c1dc4faa4c95709f6d53990b2f7aa5b4ca314676dfc54e81d04b06af72ec5065",
	"GJ/ring:9/1/cooperative":          "be6fbef82c9261ebf5116a9ffb0d946713f6bd44d470ac2938e3db470303d67f",
	"GJ/ring:9/1/restarts":             "7839428d8e640b3a368648e07a50d3a31a33df81a24459c0e0a65676b89d7788",
	"GJ/ring:9/1/single":               "d34e41517e3289f8473dce61ba97d56c888bcfa597657b76b0ae94373d0dffb6",
	"GJ/ring:9/1/tempering":            "825bd9f16909ef8e8cdb9b1109647a0bab570b246984057211ecd62963808992",
	"GJ/ring:9/1/warm":                 "adbc73094e162d412708cc95e3e2a83748d3287d127809472a9ee8e25511c240",
	"GJ/ring:9/1991/cooperative":       "483ce9f3b192ede718434ac0090cdac0bdc84c1a9a44121ff578251e8d8dc470",
	"GJ/ring:9/1991/restarts":          "0546dfefeb76c411762350cf3e1a4596de8867e1d937108d33865818184d656c",
	"GJ/ring:9/1991/single":            "6a4d8b8ae5f7a0426e4660dc8c1f012694f9bad89da7346997901ada4060c72b",
	"GJ/ring:9/1991/tempering":         "76e12c1720c16e06c8b13eb8ccce0fc71911d5e8ae1a72ffc9b7a07f0442ef9a",
	"GJ/ring:9/1991/warm":              "04acfdfe3de00c246394f6d62dee40610bedc44909cedb3e0525a4ce659e7caa",
	"GJ/ring:9/7/cooperative":          "05f2501b84b58c21965793dcda3ffc977d356300997ddf366703d52c88ca7214",
	"GJ/ring:9/7/restarts":             "27bbc0ad587fd5ccd53af443037945a8b22a98e1a454dbb49031865ec9010a0a",
	"GJ/ring:9/7/single":               "c055db4118fee65a7d11c7f1478547477f45ef047eb4a041d804a2b9586fc3aa",
	"GJ/ring:9/7/tempering":            "f6ce85bd9c098b9ad83d308506ca7a860a368f26525c20a88d7a1dab1aebc720",
	"GJ/ring:9/7/warm":                 "a37779d4a98db48689bf40a0242bb46ccf35174ab4e50484ec27904823ac3180",
	"MM/bus:8/1/cooperative":           "2eec584e5100573984d6c5fb05bf7962a067d6bd8fb6ef2a427fffb56757e70f",
	"MM/bus:8/1/restarts":              "4e20572ef702d0f3a9cf1b3cc42793eb26443a66afafbbaaa80d674cf8f00abd",
	"MM/bus:8/1/single":                "71f42a2c538edf7a2515f75ef4a77f620ad0fa70fb69f5cefc6c12a5465a25c0",
	"MM/bus:8/1/tempering":             "451a5eae575648e967c4f6e0caaa8438ce9793f9e51305321b2b20549436066b",
	"MM/bus:8/1/warm":                  "214f65a2baeae3dfe8207aacdd416d43beca3d8b3f65f09555b9020dbc346f3e",
	"MM/bus:8/1991/cooperative":        "b170fa1ba1effb302d98f7d0b2646a93f12fd54636246551faf8bf2e15050468",
	"MM/bus:8/1991/restarts":           "72cf292b64f033ecaee12adaa397ce8da7ce6cb812e13f8f53a1656a6da70baa",
	"MM/bus:8/1991/single":             "1a345e35ee32ce0e060509701d9546e4d05d1a7c296294f4b099814162057821",
	"MM/bus:8/1991/tempering":          "429ea83cf8c3e0efabb07b5d3bb4afda7eeeaae9973b3a5036bc8af8f8171c53",
	"MM/bus:8/1991/warm":               "c82251b9d3de6c3d649b4784d1076baae46503bb10db9fd737a86fdf68a8377b",
	"MM/bus:8/7/cooperative":           "00885fd25b2bfaec9c87c734a98762dc2ecfdcbb3ae3f072144c5a547f65a244",
	"MM/bus:8/7/restarts":              "07353cc0b9cf41b9e645a5f05943905497375ef10d2e007973949155c3d6990d",
	"MM/bus:8/7/single":                "4a85510c4a619daf116ece42db79c963490b166a18bc9cef5519bc28b6046312",
	"MM/bus:8/7/tempering":             "5c10656a1855a2faeab0e9ac2640aea67900119b833b14b252619099cb1996b4",
	"MM/bus:8/7/warm":                  "1a05e3437bbf59ed4466141518edd8b36fe22741f6233ed411711d6d3fc92b86",
	"MM/hypercube:3/1/cooperative":     "3a65e80f45bb55eb9eb2b3998b645cd088233202ba632578e910ca21f8c79f69",
	"MM/hypercube:3/1/restarts":        "61c148d39f1cb757df380e816ac53f3bed6d65e0a86fa2e1845a9da54f20673e",
	"MM/hypercube:3/1/single":          "7f89697d91ec45ab3f573e0b2816793b5c06f5c9fc58d3f470b0d5ddf90f030f",
	"MM/hypercube:3/1/tempering":       "789c0a7db3622feec3f3bb5bc5c32cc7d8b9047700d0e4d665187b7f683662ce",
	"MM/hypercube:3/1/warm":            "798d39d4aed31f4132e8ef8e153dfdfeeaa238e1754702a1a21239179552e520",
	"MM/hypercube:3/1991/cooperative":  "06e1590624cda24c342f5a6c0e87f12a06534df99743a8db4a391fd3cedf9c0f",
	"MM/hypercube:3/1991/restarts":     "5cdd827eceb020a2e97ebf0eb773b4f6620201e8f2d5bae7c1dd3b4b6334d4eb",
	"MM/hypercube:3/1991/single":       "a00e1f420149c9ee521562eb34985ce280197635ed18042b468ec9a005c3865e",
	"MM/hypercube:3/1991/tempering":    "20f0e26d6acf828af4b7f53ed917b1c6eb9c95afed5a2797f6d57c53147aa996",
	"MM/hypercube:3/1991/warm":         "53238a1461a49a2e1cd412934a9e1b4f10525d5ad7d32e4647521bbe2ef3c5f4",
	"MM/hypercube:3/7/cooperative":     "a68b2cfe17b69f485c4d2bc63524b6f0404bfa3e19c918b9eb3dc95c66c930f6",
	"MM/hypercube:3/7/restarts":        "f53116f8a2a936247c07f8099cc010859e6acf371a5c13eb8559c7706f947535",
	"MM/hypercube:3/7/single":          "c1d693b04791a1dd9683fe07504d4a3755b5ba29dce31037000ea445350ed85f",
	"MM/hypercube:3/7/tempering":       "5abcf2bb17d11f1203d9de9066605771c6c49bf077cbb3bb23e440e1d90db5fa",
	"MM/hypercube:3/7/warm":            "09d88d74a2294962b4e71392223a383b2db8dfb2627eb5439c33458a510b6b99",
	"MM/ring:9/1/cooperative":          "a3fd6cb72f3cffc1ef02e41cbef08b57b35ae3f048db60af583e9ed77c328f31",
	"MM/ring:9/1/restarts":             "4b8eb1d84ec7984b9e403165e52f6606410484ebf7b7021176863d81111b5197",
	"MM/ring:9/1/single":               "463d15549ada6c3ef95887e40186ba563dda0e13175cf7988ac4e91f333cf44a",
	"MM/ring:9/1/tempering":            "28a5586d2eeb145a6f30370a4ccc26f2a9985ae74cb7cef44ed971c9a4f4576b",
	"MM/ring:9/1/warm":                 "1a2e7d5bb17d8f57b6c1721dbd5e4b3ff83bcbc56240b450f71e9c05cdae0cf5",
	"MM/ring:9/1991/cooperative":       "339dbfcdf218003ff161b1a705e1cb7146b06d69f1e2a394201e6b4686a4f7c6",
	"MM/ring:9/1991/restarts":          "fb72755a2683715841fb73d65ef9b27c083079e17c4181ef2971e0ade0932d90",
	"MM/ring:9/1991/single":            "0351b563d76bcd1a47a700806dc3b6d080592838689d9474461290a36e5ec198",
	"MM/ring:9/1991/tempering":         "679120e25e373e28a0f46c2fd84152780887f255fb071277efeb9317282d5ef8",
	"MM/ring:9/1991/warm":              "55e54befb68ec7bb3af726cda24936a8e9639536a207b63d4563cfc013f3688f",
	"MM/ring:9/7/cooperative":          "c94b961718a06d9fac6bb8e8f82c77e92fd50da9d0a9e740fbb2d7232641715a",
	"MM/ring:9/7/restarts":             "ce74427ba852bd1b84b44beb395dc70082cab2e8880fc7db3d56a3baa7bb402b",
	"MM/ring:9/7/single":               "da5379e5cd6dad2cc1df9a35b1a781f65f06f8b7f7a00fa4faa77fc395541c1b",
	"MM/ring:9/7/tempering":            "f3ac6fd705a4d27725c42b8d0b28908171711bba186eb993c9758f8516b16a92",
	"MM/ring:9/7/warm":                 "201e260bada085c3096a96081409d95dddc493dea3adad1ab22213fc14f501eb",
	"NE/bus:8/1/cooperative":           "3bf0770ef3c637af026d9fc91e32e31b567a534e07e65ecf6817aadff6830cfd",
	"NE/bus:8/1/restarts":              "049504ef975d8821ec861f1ccd5b8667b0a187b70312f18bc01ef65a6570b287",
	"NE/bus:8/1/single":                "bf935fc3dcd2a47b4a956fc5301ab57ed529591b2b69ec5d70b43e2adc14aeb4",
	"NE/bus:8/1/tempering":             "598d1d0a5c7f0fb3664c78c2aa6dc270da2b7c441c2744258845f7f34e80c7cc",
	"NE/bus:8/1/warm":                  "7cb418567f87c9a1dc49a9021cdfd0d17a4fc5fee67bc62493b8cd2f06055f80",
	"NE/bus:8/1991/cooperative":        "dfcbddcc8987741e2f85884f172390bf2d32541171588b20f3bcb4489bc5eafc",
	"NE/bus:8/1991/restarts":           "0fede4e4c8df3d164b51517cd1a4af9208435c07da4eda1c36baf729bf527bc4",
	"NE/bus:8/1991/single":             "a899eac74d1df7890f1d17e8b74b99da33d48096666138d93bac2eff7cfd5d52",
	"NE/bus:8/1991/tempering":          "a99c4a1e5fe308cd2385f18ba6ccd0b4ca698bdbf9cd1e74879a1fdee472f90b",
	"NE/bus:8/1991/warm":               "fec5de37ff07a290916227dd910f17557335fc2db5a87e907ba5a837edc0b42b",
	"NE/bus:8/7/cooperative":           "f9af43befcb63cdc536330b45ddc66aed61ca7f208df76a1f60ae7c2252815fc",
	"NE/bus:8/7/restarts":              "35469c91e2d0515fddb12a893042442023aea2bfd3b3adb7d977d01b93e393cc",
	"NE/bus:8/7/single":                "4687cc05a957897f3a0cba28b23bb984999647b3111778a556acb08ee056364c",
	"NE/bus:8/7/tempering":             "a9b1513a3292cedb0acc9270b450cb348c7a295597b4b31d36374d23ab6bb940",
	"NE/bus:8/7/warm":                  "6fbac9aba403238befd9c895ef0f63e798ec89f867e54f08aa19f4715e488c10",
	"NE/hypercube:3/1/cooperative":     "831b8dc3983644bdee86338df8e3455e036671cf495eebaeda111759caea71a9",
	"NE/hypercube:3/1/restarts":        "41d7e0351a066ba9c1d684820ba31d88d386e5c3cd45ec61de41b9d696513d18",
	"NE/hypercube:3/1/single":          "ac058ece9cff0953959cb01cfd73f1502ff0bd61334c1de295bd303f86ec06f4",
	"NE/hypercube:3/1/tempering":       "ce4fff3b600d225259e12dce4f53c19e0a8d4cee3f37349e5999a83c4d0e4f70",
	"NE/hypercube:3/1/warm":            "7a961e5b7e45338f7d2b33b7b3c689f7ae6caa59436b2b3a9a16b77547ac2efc",
	"NE/hypercube:3/1991/cooperative":  "247188b3324490593a319bdf251e163df83cd8b2c11a8dc35e8a5c963162c6f2",
	"NE/hypercube:3/1991/restarts":     "d728baacf98ca586e383625b0676ea6570758f9e6ef78e75a4befe518cbbdef5",
	"NE/hypercube:3/1991/single":       "0b01a7235446badc79c2216620a86f6b7b409b17c6d19e68a3ebc0df090a5413",
	"NE/hypercube:3/1991/tempering":    "823235602eabdf1695d0f7461539522370674d0190d3d8280738353b5a6f7a09",
	"NE/hypercube:3/1991/warm":         "d49122ea81d0800caca0330c2d0fd3b9229d0d6e79cd1b95ebd4b518c6e920e0",
	"NE/hypercube:3/7/cooperative":     "95942a8ba251a2ff7256c2a80f29f00bee856bcdfed64605a0ae266adba1d8bd",
	"NE/hypercube:3/7/restarts":        "3e8619121b10cfe440a5f6f879bc30c6bcd1972e345291fa46e13d358530cc06",
	"NE/hypercube:3/7/single":          "6cdd56a710fe82b05b2d039099be667406b24ba375eed5b18c2b438e04880c48",
	"NE/hypercube:3/7/tempering":       "fc6484381016474128b0e370b5448b621682f00d3acf90a5de0c70fbc3b2753d",
	"NE/hypercube:3/7/warm":            "6fca48a587d31d45138edc5b66ae1500a7fa08d15f8acfe610581b17867887da",
	"NE/ring:9/1/cooperative":          "d47052738cafefe28dd6d93cdfb56726958b1776cfae25f042c51500b5c73354",
	"NE/ring:9/1/restarts":             "98d96146683ab06671a588681a0f01d45c5c0ba730d6de7dd9605497126017fb",
	"NE/ring:9/1/single":               "6eeabb9587f05992a05a67c83ef39b2063a406a27dcdb29e5a35493d789186ef",
	"NE/ring:9/1/tempering":            "7fcbfbfda4b7cf4992189735e24c86fc2e1f43a83990cb69508962f90000359f",
	"NE/ring:9/1/warm":                 "ab8ca3e59effa5cf44292334458332c2f19b76414ebebe7abb15000ecd227746",
	"NE/ring:9/1991/cooperative":       "61af94221535b78a4521c83c387daa57082f05ea7b32a08db6e1e0524d6ddbc1",
	"NE/ring:9/1991/restarts":          "405b1e0620d18125fde36945ced6f1070bd503aa3d78c487b15c4f583f4a6bbf",
	"NE/ring:9/1991/single":            "8f7318d0c2567297b43aa17411726a9cd60b8fa76ff4cf328a4b142f0d876ee4",
	"NE/ring:9/1991/tempering":         "3f7e4a88b5e847b7d0786d04338dd5ca1ec7ac07102efa146f677496f08a76bb",
	"NE/ring:9/1991/warm":              "b71ee530ab350113c2635db7038ba6fc20da96c87d3d6c331f578931fb9b14a4",
	"NE/ring:9/7/cooperative":          "cd6ad3a23081bd398483ae86675cca89014fc4fe5b2a6a7f64600502e1c6e27f",
	"NE/ring:9/7/restarts":             "f1e70014eeb111c2af5c9b9b6cd5da14b1c64d4a58b6f3853be6ded845e4d7ec",
	"NE/ring:9/7/single":               "63b70cf87b2b87870f52a07d037f41b6228c2cd4a4acba1b35b2fa63f76462e9",
	"NE/ring:9/7/tempering":            "021a37f3735e77f56fd51e7a0ffd961e28a2b3259709b0a2bd9f9e1769fb20a0",
	"NE/ring:9/7/warm":                 "7b9641bd6ea6ba10761634df11c172abb430ec1adfc829946fae11297ed23204",
}
