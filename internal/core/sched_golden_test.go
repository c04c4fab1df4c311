package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"wayfinder/internal/apps"
	"wayfinder/internal/vm"
)

// schedGoldenCase is one scheduler configuration the golden pins cover.
type schedGoldenCase struct {
	name  string
	opts  Options
	sched string
}

// schedGoldenCases covers each scheduler rule: one worker, the
// staleness-0 barrier, and bounded staleness, each with and without
// faults, plus time budgets, warm starts, a partial last batch, fleet
// outages, and locality dispatch.
func schedGoldenCases() []schedGoldenCase {
	var out []schedGoldenCase
	for _, tc := range faultOptsMatrix {
		out = append(out,
			schedGoldenCase{tc.name + "-faults", tc.opts, tc.sched},
			schedGoldenCase{tc.name + "-clean", tc.opts, ""})
	}
	return append(out,
		schedGoldenCase{"sequential-time", Options{TimeBudgetSec: 900, Seed: 3}, ""},
		schedGoldenCase{"round-w4-time", Options{TimeBudgetSec: 900, Seed: 3, Workers: 4}, ""},
		schedGoldenCase{"async-w4-s1-time", Options{TimeBudgetSec: 900, Seed: 3, Workers: 4, Async: true, Staleness: 1}, ""},
		schedGoldenCase{"sequential-warm", Options{Iterations: 12, Seed: 5, WarmStart: true}, ""},
		schedGoldenCase{"round-w4-warm", Options{Iterations: 16, Seed: 5, Workers: 4, WarmStart: true}, ""},
		schedGoldenCase{"async-w4-warm", Options{Iterations: 16, Seed: 5, Workers: 4, Async: true, Staleness: -1, WarmStart: true}, ""},
		schedGoldenCase{"round-w4-partial", Options{Iterations: 22, Seed: 6, Workers: 4}, ""},
		schedGoldenCase{"round-w8-h4-two-down", Options{Iterations: 32, Seed: 8, Workers: 8, Hosts: 4},
			"down:1@150,down:2@150,up:1@600,up:2@700,retry:3/20/2"},
		schedGoldenCase{"async-w8-h4-s2-two-down", Options{Iterations: 32, Seed: 8, Workers: 8, Hosts: 4, Async: true, Staleness: 2},
			"down:1@150,down:2@150,up:1@600,up:2@700,retry:3/20/2"},
		schedGoldenCase{"round-w4-h2-all-down", Options{Iterations: 20, Seed: 9, Workers: 4, Hosts: 2},
			"down:0@300,down:1@300,up:0@700,up:1@900,retry:3/20/2"},
		schedGoldenCase{"async-w4-h2-all-down", Options{Iterations: 20, Seed: 9, Workers: 4, Hosts: 2, Async: true, Staleness: -1},
			"down:0@300,down:1@300,up:0@700,up:1@900,retry:3/20/2"},
		schedGoldenCase{"round-w4-h2-locality", Options{Iterations: 20, Seed: 10, Workers: 4, Hosts: 2, Dispatch: DispatchLocality},
			"down:1@200,up:1@600,retry:3/20/2"},
		schedGoldenCase{"async-w4-h2-locality", Options{Iterations: 20, Seed: 10, Workers: 4, Hosts: 2, Dispatch: DispatchLocality, Async: true, Staleness: -1},
			"down:1@200,up:1@600,retry:3/20/2"},
		schedGoldenCase{"round-w4-time-faults", Options{TimeBudgetSec: 900, Seed: 12, Workers: 4, Hosts: 2},
			"down:1@200,up:1@600,preempt:0@300,retry:3/200/2"},
		schedGoldenCase{"sequential-retry-idle", Options{Iterations: 12, Seed: 4}, retryIdleSchedule},
	)
}

// retryIdleSchedule preempts a one-worker session twice near its end with
// a long backoff, so fresh proposals run out while a retry still waits.
const retryIdleSchedule = "preempt:0@400,preempt:0@700,retry:3/900/2"

// schedGolden holds each case's {report, event stream} digests per
// searcher, captured from the sequential, round-barrier, and async
// schedulers before they became one. The one re-pinned case is
// sequential-retry-idle: the sequential loop booked its wait for a retry
// deadline as compute, the one scheduler books it as idle time
// (TestRetryIdleHistory pins its unchanged history).
var schedGolden = map[string]map[string][2]string{
	"sequential-faults": {
		"random": {"4723a6a6ef9b7e2005e3ed772cedc6fa90b5210d8538c368e58145ef5701c5de",
			"da4507756d6431b4de915cbccae7e87c049af93bb03c4b70a45e313970612465"},
		"bayesian": {"059dc58ced9499882284d2682fd988c380c3e0adcb6df0d15c3cc1b3a153dc8d",
			"15ae3e142589523248a96bd52029983147dcefdc40f766d28d782c1ffb32bc9d"},
		"deeptune": {"2ccf171c9a7998b2f4aee034a05db785f872632d3b1ab319076be7633b1a0700",
			"ef664081bac65459bd16b55dbb311334986ea8d451efca4338409859af031da9"},
	},
	"sequential-clean": {
		"random": {"2dfece76d1c813fa4cc0eb3d470acf5d770ba011a1bf207b73fdda494883924f",
			"ac8c96f136c4cb5408778f1564a3927743312775928e8d47faf725da02dc91e1"},
		"bayesian": {"423cc41d8cb141a0b8892aae6e5b3a6c945734a276a3ed74218094b0223fe760",
			"8cc970c03be83c55ec739fb3f898fade92a38c66564814088a6ad3c1e4ee4d48"},
		"deeptune": {"b736cb5948ab1475acb94c1f78526776c9aed4fbdbe702fb010c9fc880b804ae",
			"076660e3391590a02741027053991ce8200069ffbc339611ac2e6a8495206665"},
	},
	"round-w8-h4-faults": {
		"random": {"0d8c4ada9e0775fd710919d78eab757f49105706195e1e6fbb229fb17b4e520b",
			"9055c6e0ccd77ef773e61b75a34b03494cee0651c51fd369f40cb1c0b6c7e2af"},
		"bayesian": {"2cc2e97d6bc1c94040604deeeb40bd0f85dd758d2fd7f1f04fa225527ff5b535",
			"7cf4cd3d905a9f56931fe09d2e7d3dd3a231bf00bf009ecea478044e6db11149"},
		"deeptune": {"761a8e51e723b751e1d9d991fe293dee959692155d201e441094af6a9aa7fd43",
			"f92fa2207d95829b4f03f347c0a430e7a850b5865a97d0567e58e92ac4f67ee9"},
	},
	"round-w8-h4-clean": {
		"random": {"68ecf3a26b5ccf81b4005c472019da045ea39eb700d1d7b34172a226db939766",
			"78e222f0e5eef8ccdca276b39c5f16a4e25ec480c98caf68d625378fad90e0a4"},
		"bayesian": {"092666d03a72517d537f779ae5ac5d3cb179dfec01e62c1c5e662f8eb727af6b",
			"e531b84e4e2982fd9e46362eabb88d741d6d35f2d3cd6cb3e1ea5ee9f96c2d9d"},
		"deeptune": {"3a6034e4dc74e53f156be41a8d653b071d2a04a2226686c8d28b96e0b7861ac9",
			"699969e335e9e36215426c43de6977af15d5d489df00c40d628c532a52e4dcac"},
	},
	"async-w8-h4-s3-faults": {
		"random": {"d65043fab0c26ebc5467df84735270806d04ef995080cfec05b9e148d9187493",
			"6f335a5991e5d2cfde93bde6f14485af889a48b84095d1b0c6bfaad22a05f2c0"},
		"bayesian": {"a4df04faa60dd24655108a3496c1444ac480b9f818a1f064251b182931df1bbe",
			"5dd923f6c53ff245b192d91a749b730074fbd98530a5e7d225c35d7b1269d5e2"},
		"deeptune": {"dc271874936879fc3d278e2eabc985fb8ed348f56c53531175f358cb7861df01",
			"32efa1a73f3a01ce3bd763ca25ca15df2099798b39ac78e166d9386f361e86c9"},
	},
	"async-w8-h4-s3-clean": {
		"random": {"4036b90d2e36a5756451b2031f195a77bc706726ae1eb9bc42e0e8fee648bad5",
			"9fa588056b0154e8f00639dc4a01b14a4ff59fc7a86b9ea1af33a5b097ed4ee7"},
		"bayesian": {"3112a0f838d17a1564931b26d8fc09d254975800c7acea3844345eadb6934270",
			"97a27ef20ffccd2263c9a8c8a06a6782eb51682a720e390661c018eed61ad59f"},
		"deeptune": {"9c0a9c1c34dec31f147579f4116deb0f972021dd8d9f4669ef74169a6af07740",
			"e6af35d16fbed811ff06a22fe3127823cdd1a855286eb06d7a60fded1acdc579"},
	},
	"sequential-time": {
		"random": {"8bcbf5433b1b4c07fd605f595dc8dd48a9fc02b2940d3437b0af831219d572df",
			"bb132959e1bf35ee4d4f189616fc99bcfeb55a3349af3407d2126be6e360eb61"},
		"bayesian": {"b7903fb3e9c9ef3e7b218da3ed0a7e4bc618f3ec42db85692fefbb36222abea9",
			"078725165e3a85670c09854ef496805319f4bc6bbebed2f14cd38848fce06f0f"},
		"deeptune": {"6309709a86ca7c29e070b1952d6f693d7fdcc318a62e9a1df8ffd34ad2afe272",
			"2cf451eb0092206c13150e0ecb9033e62decbced8f19abbc64c8c874ee80aa48"},
	},
	"round-w4-time": {
		"random": {"bf91edfe2811748c50d0bbcea59bff55cee346eabe63630df719a344743ede09",
			"48bf0943ae625c1bcc21299367f5684ea713b4a9eae96b40cc0c09aac9ca6014"},
		"bayesian": {"ee7c4b3a723588aa8f1298eef9fbb3fbf7147e79c2c213ac016820e7e257e94e",
			"4df357b04095c3085685f9bfb3d0326d6495da93dc28a9cda6ff40d2b1e90eca"},
		"deeptune": {"a1e17dbee8f2affeb2297b572c3bb28fcd80e5d06e758933c762401514797bbd",
			"8b51bcef99cbc2af7d1104d98cd196200f4aacfce9070dd1073d83c5f9d3bfc9"},
	},
	"async-w4-s1-time": {
		"random": {"fb1bb36eac8424243958a42f35ed44850d7d7ff5743e721bd6b65a417e90ab4f",
			"37c7aae8172e3480b31eeda640ba06b0eb7cd9797057d810f5786b82d5754f3f"},
		"bayesian": {"54663695e8f951aa7b635740f3322570971f23848ab6ed53be956711e8ca98f8",
			"1b30076033060f25ea16f75401acb055b18fdc27f5aeac232ca863e022439c11"},
		"deeptune": {"f10a3b5b95142b8c1f60df13bbfc267299df06915f0630a748187113d689f777",
			"6817f1bfdb50c9939fffe6176358dc5c6e341846a9a8a2fa58adf516364b0044"},
	},
	"sequential-warm": {
		"random": {"df27efb744f0750ebec938aefb3e361626bdfb1eeb3647ed6bbe25c9455ea4bb",
			"4fc139b72f9ea77e946228681ca21d97d7d647796176fb9f64b09b0e9e95c1ca"},
		"bayesian": {"b652edd971b44751b2380ac792a0719f8a4bcb28ceb6adc05ea2c4a05699a002",
			"cb15d3152d58f317e4d894cf2e8a12c75bd84008ea5665eb2d7f90d95b3d3a47"},
		"deeptune": {"2fa1e796bc659cf615b14f88344719a3e9941808252943608b9d983c733517be",
			"7b4d6130bb9d9a58cb519f30c0296430901ea552ed581034589943eeeea56e7b"},
	},
	"round-w4-warm": {
		"random": {"57b445be3da4072e84bf2e5d20139ee32ed36db0f3dab94930ca8cd99276e4f7",
			"8157c79586441c1e2d36a4fa0f86f98992a7c1b19be72c7ddb64efe824621072"},
		"bayesian": {"b37f66a587d8df79a84f3ff224745f861b6429650fdd78f195c9938d7db54f5a",
			"be03824ba918007f39d37b9b373bab024db017521622d334645e636c2e1f9fe3"},
		"deeptune": {"8bb955f24892b3d532be36adabcdc6d6d3bea1547e0f09dbcd5177ccc27c0045",
			"0ba625d2354f7d1a4763c98f4d9e2b3b655f03d97b1264a3ddf88e470f91616e"},
	},
	"async-w4-warm": {
		"random": {"b61a67d4afa70bb3cb3cec7d2a5931aec6578fa401648487c6cbd4ca67b55b5d",
			"4ba80495bd256c7edac7c9f005e3796ed81842184055d555a22db1016ebf758b"},
		"bayesian": {"965457bcdc72d246a7feb2b309398e7292e962928118b32c857c5d13f5d60d64",
			"99f5f086df63bc086603f14dc83422a029ad7a37cd8cad57bf34ae53686b8185"},
		"deeptune": {"ccb143cbdaba94c7cc634c057f3fb7da2c9d55795ae92c1318f148a2859b0730",
			"f4ff5789f7b1da834cef2f5ca8cbb2c37b5d15bfe9abc7ababa1e5eb6d3983b1"},
	},
	"round-w4-partial": {
		"random": {"62f938f34e064c48660952e43dee0967825f947a69afe719141aac18ff379d8d",
			"da999d55c776ca71afc3cf1594d348884815d5529d855daca940a6f53796eba0"},
		"bayesian": {"6a4c2b06590b7f9134dae370fe851fc33d94da36242c400e952994349064c8ab",
			"6cb79f2bb0c46a34d94251c763b8763fdc67cc941bd14d2c95cfe8b112b4e929"},
		"deeptune": {"3a6aa49def4e84e922d4e77a314081c50fbfd5f3f5a09153dbbd88f47ce0ad44",
			"6d046ebb3e3f8b8ac8c54c0c44c8e2c4474964fb10a181760afe8bf5731bbacc"},
	},
	"round-w8-h4-two-down": {
		"random": {"9289fa42fd9073f1e6bbbbc9607b4ca48449347673906f4a15d2346f2fcaadfb",
			"693b6602705542cb9c14fd592974a0b6568a481996aa01c540fee6659461059a"},
		"bayesian": {"aff5232a2246924277356364961e9384a17ba325608cd6885fed465d6bfe737c",
			"144fc3a092d724ce34ed1bb6a44125ecdb14ef3a0d69c0b9f7f35ead6e69f073"},
		"deeptune": {"2be1e51a5f04e7cd2f13e6900f7649a260e58be37592122301330d4fc74e8380",
			"17aac8e43ca0f11c7a40f80363b940266f12b0a26d69027ea3713bf62ef3d4ab"},
	},
	"async-w8-h4-s2-two-down": {
		"random": {"c4031a51cba333be1b1571704c9ec397ae16ee6b603f7049757a2daf0aa7b6c9",
			"9b0b11394d57a4a6c5f655d0c389c09ab2bd66cc8265c41463572eabeda44884"},
		"bayesian": {"2e33892764bd5efced830f94a3b1495b5e5ea5dbd42440385b3d695dae90a2cf",
			"df57816a4b483b31189398e1dde44ec2b8d9d772a38964203d7014e6bb99d2b5"},
		"deeptune": {"e48a25a182bbae3f6c6995be63b03c03313d8c9367a706d1624c962f8c0f6719",
			"73442399c437d0273ce557b93d701299cf9341a8c3d46d871d392b5f68049ef1"},
	},
	"round-w4-h2-all-down": {
		"random": {"00d9a4396034cc0d605913558d51b521850f27bde63417d8651878b37085f00a",
			"fcb990c631c9c1504c74e7ea1806bfdcf0db456efeed795ddee94070702398bc"},
		"bayesian": {"69688b64278610785fbb2ba2c358cc152443387674cba9074cd5b67aa60637cd",
			"7e3c41c4cf419f2ecee4df6bcaf4ec8572c75f809fd8534489ac1f7892a4f652"},
		"deeptune": {"ad02e893b0ee62ad27518214470140b428dcb96a16cf5d42c6acc29f80b74883",
			"88d39ef38d4cbfb880a0aad435ee6eae628ada06902af1f84c2546c41b0a210f"},
	},
	"async-w4-h2-all-down": {
		"random": {"e0b295e3580aad9e870fb2110428830bc3619273095c0ab2a6cede145adb6808",
			"9c1244ff7a03a472fb784975ab41278ebdd54ae3ffae029b295ab3b59008c93e"},
		"bayesian": {"c6008b1e341109514905aa60e23674ab8884abfeda9368242348c64d75e4043c",
			"4493d2a37bdec3e8793fa94e0726f4a1939f0178fe4334d91e482b8994ebfc8f"},
		"deeptune": {"19f95c797263168afd44cf39ae4e5ca74619ccacd6e3c7eba3270201f3145b12",
			"49bf4f005c587187d0b8013b4b1b8049f7ee22c0e5e4e7ece7066b6263549f67"},
	},
	"round-w4-h2-locality": {
		"random": {"ab182398d21f612db06596e85ecb4bb2c32d2f77cdec297f6ab43cc9e80862fa",
			"2a5f8e1f1aed10d6b48bd1d0261fd690238620b1376bc80a5da917c6946f4e3a"},
		"bayesian": {"141a123947aef699d13e19863cd43289e08abbb8638872ebe8d04174bb9b4972",
			"6a9eb2653db426ab1cccd3313dd0b848eb18ecc5a20bcb3690ea4ec81894204c"},
		"deeptune": {"9cb45b026c40e9259dfdc96a4421bb74915a19070f8c276ca4c10876cbf55c12",
			"bd8e1250e42e9c3bfffe973bd456d2a8845ea1b923d2c519b7683de8a41efd53"},
	},
	"async-w4-h2-locality": {
		"random": {"a77f92478e009bfa445eb0e92ae52699fd14ce6ba75e58cc354b27d9511f9a44",
			"a9fb43dcac45cab33563e2b6615ec02cacf1742a3fa0bdac7805153d070112d0"},
		"bayesian": {"be07f2de1132afa03ceaa1ce1229b759c4acc4beec059be48d2e76215b607236",
			"c31316a381a5b83e5442ec71cac6bb8b2250d0bacbb7abf8bd448ed7fee71442"},
		"deeptune": {"91b9be4b1fcbf19da49bc93796c5a48dba90e721736048808b41c5d786dd01b0",
			"54ca9e4c8d969156d43421df3e77094d9432c0170e13a952145f90e49f62f5c4"},
	},
	"round-w4-time-faults": {
		"random": {"dda2a2513543792280a1561e0924962232cf86b3485ee5e0c7c5ab3a3ee52a15",
			"3ab07a29d9a83892005de4b1d12d6aae3c6d71463a7dc65b852da83db801d270"},
		"bayesian": {"d82899488eeaf6b1a8d6f7356099f3a16e5ec3d1db884dd17dc754f541c908b3",
			"71efc01fea9d24648929aeeba93d0a869ebe0e3d0921dbf8bdac00fbd70aac4f"},
		"deeptune": {"82a43f6ac9675720cb87245d2d0fc61e0484216b24a4d0372b9c3b9202383ac5",
			"58e373fbab56122e121c170deff91e11c0708f14b315dde2fa4287fd097de553"},
	},
	"sequential-retry-idle": {
		"random": {"82ab093cad309299dc79788fc9e64143a1d2dcee85560ea4e8ca74ea526156be",
			"1a1ec4df4de1136ec32765254a06a24f3ffc11b4f63e2a1de410ab23c0d1f700"},
		"bayesian": {"62565fec7f73f10a54f18bfcc70db474e329c4e668216b6721ce1617c23d7fc2",
			"58bd73ad9d31d9d8a93da492eded45255ff7b4e510ee5f8b3347abdcb78fac5f"},
		"deeptune": {"f534708eddfd171553edd88ccbf55dba3c6c633322021ca8d54ffa619529b610",
			"07b0d1870e6c56b77740e1f65b4ec3bcf09be5a86b36c9cece8164ee9bedf210"},
	},
}

// goldenRun runs one case and returns its report with the report and
// event-stream digests.
func goldenRun(t *testing.T, kind string, opts Options, sched string) (*Report, [2]string) {
	t.Helper()
	if sched != "" {
		opts.Faults = mustSchedule(t, sched)
	}
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, kind, opts.Seed), &vm.Clock{}, opts.Seed)
	sess, err := eng.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	events := sha256.New()
	sess.AddObserver(func(ev Event) {
		var line string
		switch e := ev.(type) {
		case HostStateChanged, FaultInjected, RetryScheduled:
			line = fmt.Sprintf("%T:%s", e, jsonString(t, e))
		default:
			line = eventString(t, ev)
		}
		events.Write([]byte(line + "\n"))
	})
	rep, err := sess.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	return rep, [2]string{reportHash(t, rep), hex.EncodeToString(events.Sum(nil))}
}

// TestSchedulerGolden pins reports and event streams across
// schedGoldenCases for the random, bayesian, and deeptune searchers.
func TestSchedulerGolden(t *testing.T) {
	for _, tc := range schedGoldenCases() {
		for _, kind := range []string{"random", "bayesian", "deeptune"} {
			_, got := goldenRun(t, kind, tc.opts, tc.sched)
			want := schedGolden[tc.name][kind]
			if got[0] != want[0] {
				t.Errorf("%s/%s: report hash %s, want %s", tc.name, kind, got[0], want[0])
			}
			if got[1] != want[1] {
				t.Errorf("%s/%s: event-stream hash %s, want %s", tc.name, kind, got[1], want[1])
			}
		}
	}
}

// TestRetryIdleHistory: a one-worker session that runs out of fresh
// proposals while a retry waits out its backoff evaluates exactly what
// the sequential loop did (history digests captured from it), and books
// the wait as idle time, not compute.
func TestRetryIdleHistory(t *testing.T) {
	want := map[string]string{
		"random":   "0d74f11dd0697f4ad17a676cc787a40e6755ebbc94aa5e880a2d0d4fc8c3ed80",
		"bayesian": "13c48bd433f84747b744aa12a443138889a683eb94906a6defa3f0c7abe3e746",
		"deeptune": "78d69c176fc646a8290f5e1e621f4dda335174b61cf8f8efde93950afc386e5a",
	}
	for _, kind := range []string{"random", "bayesian", "deeptune"} {
		rep, _ := goldenRun(t, kind, Options{Iterations: 12, Seed: 4}, retryIdleSchedule)
		if got := reportHash(t, &Report{History: rep.History}); got != want[kind] {
			t.Errorf("%s: history hash %s, want %s", kind, got, want[kind])
		}
		if rep.IdleSec <= 0 || rep.Utilization >= 1 {
			t.Errorf("%s: idle %.2fs, utilization %.3f — the backoff wait was not booked as idle", kind, rep.IdleSec, rep.Utilization)
		}
	}
}
