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
// schedulers before they became one (see reportHash for the one
// encoding re-pin). The one case whose behaviour was re-pinned is
// sequential-retry-idle: the sequential loop booked its wait for a retry
// deadline as compute, the one scheduler books it as idle time
// (TestRetryIdleHistory pins its unchanged history).
var schedGolden = map[string]map[string][2]string{
	"sequential-faults": {
		"random": {"71605dfbb7be3841f931ebb8c69f9748dadb20be75f0f7b02334f4a4c6a15c35",
			"19a059f6856e2d42803b134c86456afe7971a329f3fda3a1f6c4f8edd722a0bc"},
		"bayesian": {"a581930272330069d2d437f782969c7cf4ee4b67706cc55cfa70b47b30286b82",
			"5eb7a67fda2997515fb13bfc12fd48fe44e4c831161d2ca3938010a3787fee1f"},
		"deeptune": {"c2c40634f086c66c356a3471f45b7ee8648ee1e20e4d8dc7528b621f811ddecd",
			"d472579fbc1109dd72e49e070cafde2ea0c168c2f724a5fa2b27863bed3d0e42"},
	},
	"sequential-clean": {
		"random": {"e5d838db652b6086e64ec24b92a9b65fc86b8770c3385dd1d315a9a3344cc0a7",
			"44c5d4c08d3eb10c1360782caf57896c9d4e6d164eb40e646a37192ca33e317b"},
		"bayesian": {"897b7c7b441908c9d28a501d8437db48ebc17468c569639da15fcaaac1b49406",
			"a959cf2c17c5bc4d375fe3d85ef75fa7cf237a456455a25e64069194e6de2b57"},
		"deeptune": {"d1a1e482f2395259f30fc656ded83ef4d29e4526bc8bb2bb6712f5eee3ff1de2",
			"69cb6e903581712bceca7d59423d6d25068cc22d6f230ee15196a07b9ad2ae14"},
	},
	"round-w8-h4-faults": {
		"random": {"67611e1b0f965bd630cb7686ea19f384e04b0b65e4563c8af764ea3482b9cb81",
			"34390465bdd2c4e40861d5a548616b59eefbefd859930795c63b26a71a6f2607"},
		"bayesian": {"adb6d931d9f7d9ba4bfcb69045574e74ca2178f7aa292ea9bf271fbbfe94ea5f",
			"c10348443fa6526999ba07fcaadbc9abc17e6f40c19edf354b232706b840a866"},
		"deeptune": {"4b503e4d05f4010a94158c2bb07383dae611cf8851df945a45f6ec3c2594a54c",
			"082d94ef7133de2f70e1efa6dbe801ed00c1f289d84995ad8fbb534a3365f1dd"},
	},
	"round-w8-h4-clean": {
		"random": {"28c38f9755b9be3da75acabf0227a5cb63dfc15d23a6b2d4bab36ee6739919c0",
			"6f136af49e55284e3f89485763a4514234a434425372f412750501adeb66d056"},
		"bayesian": {"791eca4ae38d9122df4ba1156446872b1fd097cbdc9a12f9a2f1f27f5539add6",
			"b5320c4445ea4f1f226393b65caa1a05f7c3260566a200a872c97d09319661f2"},
		"deeptune": {"e5a8e5a826c7c35229aec011aa952a29343a39548c2cc298009eb3a6d59cff2f",
			"68735b1a5385c5c7c978574d1e6fda788a2c71f5f273f5d25c6fc22e118028ce"},
	},
	"async-w8-h4-s3-faults": {
		"random": {"d463cc5bb58ed1da85aa7733777e317e8a270a9b04fa1b277d8547f62ad48069",
			"e95757b6344e3188cb63786ef38c63b35ef7985e1b385b30130e5b9b95a51166"},
		"bayesian": {"6c1d2e37ebeabcc8795717d4612033fe1656e34abc264396aff3c3bb86747c22",
			"2c54fe63c6c53082601b430186be0a2781a5a01b70f321922aa1f6286027cc41"},
		"deeptune": {"b1209b933ba25f96efc9ee0428ca07f3cbf667b164593cba1da4b64a3380fde5",
			"a6d8606f214c44e2691f53942ed609172e22b8acf30f93e07175be2b1d059145"},
	},
	"async-w8-h4-s3-clean": {
		"random": {"1188e4393de98cf469632ae8f1438a9defff904fad0b809cf223347559024b34",
			"cbf4ce8f8cc7317b83a570c774ca14df9bc1c06dd6838dac6c24e857c4dfe2b9"},
		"bayesian": {"9a74d8bcff176511ad34975a7a902eaa46b5ace7e99e44c5e38426bfc14bc30f",
			"8af859f10d0b648a1a4e633d8788f168fea7215e3f09f18bff245d6520367b62"},
		"deeptune": {"a172f1f42a0dd85c449480c78dd1fd840048845688dafe04a0e64a24ae09c0b1",
			"a4ae56a9c674e6018806962c34d56d4a91f7bca2721e2385000a61c0a2260bac"},
	},
	"sequential-time": {
		"random": {"abb7597140f2ed3526fa510a89619e293d0071a62ed4b4dc5a921f2e4c25cec4",
			"5589601186ec4e1552ac5740d45b5e4823024ee34587c39ad59bdf59c4f9d803"},
		"bayesian": {"80eda090f68e5b26fecb3db8fe47b0b9e5a53497b1113c357d5f3bd81ad42940",
			"fe4ceea41b4704c03b9469d2ef4489492014f94163066d33917f56f34fedbb44"},
		"deeptune": {"5f2dadd3d0b75b4b23d39233da3a55618e5c4fff7ec4b260bf15ea411342e13c",
			"75063fde40fb9ca6f50aa1be85e0362b89c06569b60e2e9bc2c8e426b2dbf022"},
	},
	"round-w4-time": {
		"random": {"f48f0acfe1452028e76892b46e69fcc53f9bee6bdb28bfb045118cedd0078332",
			"0f429a5ac35c243f6999f5b88cc6cfe14186dc41f27785ca98e031bad928d2ab"},
		"bayesian": {"3d7d015bdaf2cc1f4c746e61667f75c25eac6a57e339bf838381b8a4ea041c9f",
			"0ced95f563b2260b387b8b683fa10afdc88efe18abddef304317fcf76bb9cc46"},
		"deeptune": {"8d05a2ddabd6509d4d4c0142ab839da0f5a7b74ba83133d61013845c15daeb62",
			"61325b6da8408d706581cb9a02bda2dd289949dfe784fc73ea4c9edf4917c54c"},
	},
	"async-w4-s1-time": {
		"random": {"4913967d1750b8c35a63c15f4d33b59cc7a093f08407d5ee35dc00158afd7717",
			"1579293846c2c53e3455f0e01aace0d805f1abdd8d8afb5c3143a5603d218e94"},
		"bayesian": {"99cb0c20d2369b357bcee290732a599f5ffb8111f364e496494eb43116769b7d",
			"6a4b507fc7152d5b70d71c41f4c2499641ef51bfccd8e3864eaa337be43aba70"},
		"deeptune": {"380fa271dd949bbe4611182b1d10b13f1fde5052c6da06bb3ed3ad0fa54d3bb4",
			"b68cf4a158ca00e37cb7450706e533d67b5a8194b129175dc37479511ae60792"},
	},
	"sequential-warm": {
		"random": {"6fcb57ed939e57f5fb0ad4955c7579bddf62d2a491a16aa84acd10e9ae8950fe",
			"67375a2d769c3cd5328ca9f0151c9793970bc1534374abb5eef281b21521965f"},
		"bayesian": {"3dea2d84740e185ca14be9a70039f824a402806bc48025c468bdedcbccc24d9e",
			"ba4baa033845de10177ad1a176fa9d4ade6c3aaf0c9a235d5617474f11d0086a"},
		"deeptune": {"090553853cd7db0c852f233f3282acde6face1523daeb145d05dd8a3d2caa685",
			"cb80d1216af227356d1236b15a8ad9b1711113dd309b9c66f809d68bbb292751"},
	},
	"round-w4-warm": {
		"random": {"afadaf6a8def01fcc02cd40468d400ba2a32a5cf215dddbc59da82047e9fd845",
			"886a44fd6c49af3516872bf788df487ca054d2af51be14fb236fbf05ed9af6ae"},
		"bayesian": {"c4c29ec1db23ae2d9677af75fd57e60db6ace3041b9e8ee2822aa2f3054ed344",
			"2437f42750036ead13c0349339beef99288f2f9f83fc90a2ea0f6ecc345fc0e9"},
		"deeptune": {"5f9c2922ce9dafe4b6832423ba290bfd16d521f378a80842af6aaf75efd5812c",
			"fcae70c017c6ac2ec82781149f42a333c74631ba4f9ed75100d017a1b93791ad"},
	},
	"async-w4-warm": {
		"random": {"1b2126008b89ea0edc63e2afa5a619fe48df628c30c2bbd170fe955562df8169",
			"5d163e2edc015d6d28131e61d60103f6d14eb8a5e1aa40adfd231123b052188f"},
		"bayesian": {"be6ad6d40b7ab29e34fb296b402146f3d2eb7836f5804c4844d7e4b717319d21",
			"5709580db3b1e78fc9452a7cc72091a477a2639a6927c2c0fc09430a065e28fd"},
		"deeptune": {"4e17ed78887e16849b916e637aa998e0d4439954a1815ba27a07d01f5688e3ce",
			"4a24bc150f04b07057111cc2bdf1628e94de21737ec7fca3a106cdbaffc1d956"},
	},
	"round-w4-partial": {
		"random": {"1c177bb74087b45b3d9bb26ed297fd160623f35249ca60518b711aa736c7d476",
			"ffad657cd9a4e2daac7c2a26e90d142b2166a6c92154f27edcb800cdc2a42f49"},
		"bayesian": {"c171b172198ed82a64ee52d2210df4b83521a82a9779e5a4fe6468fc28e244ac",
			"f4c04add2637ac4ba790870557ddb94184f4b4b25f40d66e7366bf63dec9706f"},
		"deeptune": {"03071eeaa8b318bd798ac89738acc06806db659d1337362e22b0dc078e0fb9f1",
			"973426ac30663dcd0cddc13b9b39632a228f31bb6684fbdc6bb6a490cb4dc3eb"},
	},
	"round-w8-h4-two-down": {
		"random": {"f0104a0cf18d53a674f4959ca388a9ac4bc37b224d17b66b775be708fae67524",
			"91af3c0db07d237c6646132161381ea4c459b8c90b29012750f54f9a52b213a4"},
		"bayesian": {"e98d37cd15ee6cd1c7824026b2705b1158c95f722cfc3654a3fe86a1ba2964ea",
			"ec7facd78174c85019fc9ef3d436335563b26c46746c0d7f072d7863c2f0937d"},
		"deeptune": {"5c8ef9346386e9c802bcb0ee838c42866eef3b1188085d9d5323f61e9f930678",
			"066583fd3bcb7a572498e9cdd15f682cdf417bfc5a00fdf91e8a3e00add9b9e4"},
	},
	"async-w8-h4-s2-two-down": {
		"random": {"781e0da082f8ebfd4522740569c271a4f14a3a6106b2ff088fca65db03d4a8c5",
			"3bbc0c4034ce95f0d3c28eeeafaa0af7f9972319c130c41acab9198d2f03bc2b"},
		"bayesian": {"7c486a5641673e6dfd36ac3a24e4f3a77ca18c5bf81e08f6e634d2576fff17c4",
			"56155824e7e8b0b111c8279e5facf156193545e889f197083334bf71eec775bd"},
		"deeptune": {"a439b870815a6b13f189e215f6cf8936bc3bf3e1484ad2acb4c59a096455b59b",
			"610c90e6ecbe3de5d8460a102afdf25526d9102e593add09c5a868e110d0da8c"},
	},
	"round-w4-h2-all-down": {
		"random": {"23b0300015213741156e4169d8440d6fb9ebdaf4887289139b94bbe5f5beccd5",
			"5db512d93fc7f2459bc165a77d8672dffb09f5adf65a297111352e616b6c432a"},
		"bayesian": {"bc4e8230b41a3f954fb5b6b95805244d98d2b461b30a8d1825d2412bb3a76e89",
			"d5396dbe9b4adc21dcc098278d8daeb9787ea158b3603b56b31eb3c5e1959269"},
		"deeptune": {"47b6f0e13f68d278782d2a7194f43b96b1d849e922613c1a6d6d1710e7361cd5",
			"f97a26a1f7d499900973942745225b6d7b53a9faedbe2bcdd21b9e6824ee153f"},
	},
	"async-w4-h2-all-down": {
		"random": {"912d195b8e8033c83ddf4ab47ebd38d3b9fa154ce4ee150302f561099eba9c27",
			"65e44147a4215ea0de5a5db38bcae5862271748be66c6175b48dd4ccf321b6b0"},
		"bayesian": {"0205dcf3104e16c4e3744481e41191aa89aa0734117dfd5017d9be3088212340",
			"ccbb9f5712fdf60ae323980160455f946e07d9c3c10c33c87e8b6db50afe2a87"},
		"deeptune": {"5d7080e759f4f85771a96f353e69b1d41d52d6c38b858a344b8de5c257da9a56",
			"4d6403ed63edda655471593522f0bc0e214ef54ac10b29ec7a6c193ae92a437f"},
	},
	"round-w4-h2-locality": {
		"random": {"aed8ed2b60680360f5d190eb1ae1438dfeb634b68abc6aed3ac2e81b5fa6e034",
			"c5710e03e56fb5c33db7dfe89b7624ac437c0c78ce43e2d66d2faa34320d207b"},
		"bayesian": {"2bd83fed1527af2e03ac630c01c6a6fc14c8a6361cbe6f892ddd94f3efd25af8",
			"2a254f09f726f3dc320b46ecfc05a381ee3735f896991872e2daf0b2786aa5d4"},
		"deeptune": {"4cf428d2e5579e6da1ac194967549e196f5bdd08fc5d9a53b1988963c1e926f4",
			"ba17a2250d75b67afcef49c484a1ccdcbf5572cdf6f553e5da0ef99da7d2ceef"},
	},
	"async-w4-h2-locality": {
		"random": {"c3cf924eb28df9a3d8d82f0afda3255a18279ae56463890fbbc7ef090c3eabe5",
			"813d45c6bdcaaa362b18fca6ae01d6f98eade30e44e05bb7b7cd0f9691ddff33"},
		"bayesian": {"877efce0e0cfeb9ef814113101774dce4ecc2d33233a2d1736f5a471b05fb020",
			"d87cae3dfa58e012af3b87b0af420a163db59582f97c58b0e8b8bd149104c93a"},
		"deeptune": {"b21e2c726ee1e6692aef52504a59ed9154827a6251ff0861155c1dd13739e571",
			"7aa347f00b853d2c9dbdcc3db1d974a5eb6d9d272e94a30dfff2d14e6b0e1267"},
	},
	"round-w4-time-faults": {
		"random": {"da1c55e1f2b318c94b07970416ac9046c9e6bb90d334856f1e80b1e8888c27a0",
			"e70331be4b29bb881e8ab8966b0f9def41d559f35ed40c1f415e067fba28d156"},
		"bayesian": {"efc8fcaba52183637e72d1daa44e1820fe18121cb717c3a6c75a872128a13cad",
			"b0277d1d83a18119c590c1442fea565e521ac80230b371346cd71a58a0e81475"},
		"deeptune": {"2c36fdbc16f693e53dbf28163596cf0840058cfaf5cd0954aa9fe66c2fcf0ca2",
			"5abde78518f3de3d7dafc2c8d0fdc3242362dffb9c37edc564bc33e77d4585da"},
	},
	"sequential-retry-idle": {
		"random": {"11bed95743fbf2194bac31f7d97a067247a9a7e8e707ba8af5685a1439c66da7",
			"72251aec96d09deb439fb3f5592e28159c1b69430d29813ddbf0776483234d41"},
		"bayesian": {"bc277edb378691dbe4b07b2c8e7184ddee7bff339dc7c544c96fc93f1c1b7a34",
			"e7368592662a4a1aaa2452bd3fa01ac6fc7be76a9a8e89cbdcd4d8ddca123f79"},
		"deeptune": {"1924a33c824269b341e2196312fdd749c794a365d59e35b2124053184f7ee112",
			"c923b40ce32a58f17dc3a92e57d3e65bab7d25ed3ba0dd1125fc610a08caa14c"},
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
		"random":   "774e9c3825d18826fbbf88020489ba61f986197cb64bf3ec321822a1a2cbeb81",
		"bayesian": "bb782c0b764ad3619735b10a3ce49fc1727e2c287f0de9449ed5f03acf32b0f1",
		"deeptune": "1d706c17057aba7f753a0a007b0d2b29979a6bd93129bd49b6274baaecfb6bdb",
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
