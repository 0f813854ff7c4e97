package chunk

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
)

// goldenEncodes holds the SHA-256 of the NMRKD2 file each golden case
// writes, keyed by case name. The constants were taken from an amd64
// build before the encode's scratch was pooled; no change to how the
// encode computes may move one.
var goldenEncodes = map[string]string{
	"n12960/equal-width/B3/nozero=false":       "e901fadb565933307af1c2bc7afc80ffaed55ba6c8bfac67c934221e0550b128",
	"n12960/equal-width/B3/nozero=true":        "cfc893823d59ca57026af4a8e9be3fa544023f32dd61b8f558a2ff37fd32b051",
	"n12960/equal-width/B8/nozero=false":       "abcaa34612cff8302345b6ca8d03843699f1c240130187a0ce9d0ebba865b02b",
	"n12960/equal-width/B8/nozero=true":        "c0c24ee4f9029a7aeae043045d2cc9cb547ab184c1ede2fba010223e4d0511fe",
	"n12960/equal-width/B12/nozero=false":      "de128889b8312cf9340c42f04f2f6ad0deae3a854000c866226b02925444e8bb",
	"n12960/equal-width/B12/nozero=true":       "723201a2108c2e7e47c307a3ae1027f25a8a8220a3ac0c642fddbd96a9872f6a",
	"n12960/log-scale/B3/nozero=false":         "bf7dc53f0577c88a8e55a2f3dd7f10c722c92cdc0c35897bc6ab5128284d52e1",
	"n12960/log-scale/B3/nozero=true":          "0b7217ba6956cb76d9ab41ff1d31afabc85378fc5fba0db8409b90a94b400f72",
	"n12960/log-scale/B8/nozero=false":         "9ff60d6f442ce0ffa255bbbcdba808e453b531b9f78aa872b67887ca3a8dc76e",
	"n12960/log-scale/B8/nozero=true":          "8c51d9a29f372d9ba0cb927505025d4c0ee703751f2b25c8cc217de75a41a6ff",
	"n12960/log-scale/B12/nozero=false":        "c2da3e80c1b6aa92d94dcfabac42e9b2dec40179a03f784363a29f6033248544",
	"n12960/log-scale/B12/nozero=true":         "334e4750bbe55a530a198f4628a9d234ca7f8f2caec23464f61d39f779b89f7f",
	"n12960/clustering/B3/nozero=false":        "43d38db23e07961c33c1b5612afdc7649d9c0599b5de0a2ada364367f8369170",
	"n12960/clustering/B3/nozero=true":         "f5355ef8bca5c56dc9f40391fbede5f9f0e7a0e5215ae2197ce1bc6e88a56dbe",
	"n12960/clustering/B8/nozero=false":        "31238b715f1770419cc4447de566ecdfeefa2b7fca9fa6dd4721b3a0e0a227ec",
	"n12960/clustering/B8/nozero=true":         "00f69dd46a2de75870a733370612733f22fd58255715d1fc627909fe185d5802",
	"n12960/clustering/B12/nozero=false":       "d58b98feb522cfc1252e1b409906de42ca482b67b788e99c116a8abc46012909",
	"n12960/clustering/B12/nozero=true":        "d62caf3edf0166d56ea8ef8df0f5cd6ed75ef5acb6ec4e27db17c76b8a04b512",
	"n12960/equal-frequency/B3/nozero=false":   "cbd88420fb5ea39b9d46dd049842943ccfdc5ec814e4f8ab4260ea96db0e7772",
	"n12960/equal-frequency/B3/nozero=true":    "85de19f170f33343788e1b3dc3b4bfeca3445551fa0b7eb3a35b686c776977d5",
	"n12960/equal-frequency/B8/nozero=false":   "06c4ade8b092096976885bd7e89e22ec7b91dae082a6c3687b08c10839035e24",
	"n12960/equal-frequency/B8/nozero=true":    "e24c38a9b6fbb518a9116d4258323b857d60943dccb9129304887b2066dbfc52",
	"n12960/equal-frequency/B12/nozero=false":  "fa0dfa70daa1579cc373cb31fda83b97c70ad8f5f86ad1df6346597de2958bc9",
	"n12960/equal-frequency/B12/nozero=true":   "419c802920434d51224e05b33faebd708ee94d308b22d693ffaeaeacbd60e1ac",
	"n65536/equal-width/B3/nozero=false":       "4dd956c40f987245692f67f3a1b2fcc4685d690a9e90cb107f1a2b8bb48380e1",
	"n65536/equal-width/B3/nozero=true":        "2eac34690a7aa45755d681fb065ba06d324077f661e599417b158a6eb5cce38f",
	"n65536/equal-width/B8/nozero=false":       "a463ef5bf04b82dcdec3225d060d15d84fe6768bc90fccf20cf37bc9fad8ba88",
	"n65536/equal-width/B8/nozero=true":        "0ef1c0419872a117519d8192502f9946c2c4f3c38867508f3a8445775d04076e",
	"n65536/equal-width/B12/nozero=false":      "a59a5a6e3977c2cee54a6bf22ee91c34625998094de9446f0fc691cfeb049f80",
	"n65536/equal-width/B12/nozero=true":       "22e17f1f04576e41715e06a261ba84ca6724df0b6473cdcb9ce6d180b6cf7446",
	"n65536/log-scale/B3/nozero=false":         "c2296fbfe970bfca43f85cf23b5f2041f11bb50d1f7c44221d5f01719f7d6c72",
	"n65536/log-scale/B3/nozero=true":          "2655d191d4aac5812b4aa3ff3c384315dd188f41e6206d6f6e724cfef6ba750d",
	"n65536/log-scale/B8/nozero=false":         "0d1aeed92ff285ccbb8325e290fa50dfe150f2af41fd8f49506cb3a54d78ba6d",
	"n65536/log-scale/B8/nozero=true":          "1130b9dc5e435219792026f186bfb30e801cfbe4923eff550fdb8700fb8142b0",
	"n65536/log-scale/B12/nozero=false":        "89c3bad920d330a552d22c8c625be42a49451a201b3f2430ad9b93418957a9db",
	"n65536/log-scale/B12/nozero=true":         "9e480d2382bb108d773749df9811a1daf7844430a91f57ecf0c1398bc9f7e54f",
	"n65536/clustering/B3/nozero=false":        "66a4477e09851dfe5feafec23e4f0bfae2404a5f69e857faa9b8f26772383e82",
	"n65536/clustering/B3/nozero=true":         "dd26c4322bfd73c850ce6670fd1b3766fa8937e460573aa0b131ad86f625e7c0",
	"n65536/clustering/B8/nozero=false":        "dff7d890b8334cb1f1c7ed95264bc40d4d73ad16b7fbf72f49bd76f5a1933882",
	"n65536/clustering/B8/nozero=true":         "0c8e97c6ffede69fd9bef78b3598079d3b9a154fc15bdef265c117cad93ddc55",
	"n65536/clustering/B12/nozero=false":       "056a3190caeb4d482f49d4d3ad1cde7de28a0381acbb595265675777313788d3",
	"n65536/clustering/B12/nozero=true":        "8d85fdcfec529e9112cbe3e1b9f9af6bff6f236ea652f898845475c0a0c10e1c",
	"n65536/equal-frequency/B3/nozero=false":   "8fe56c4943575bc9f23c5863f7a9a777712a8bd0d6be878ebdbf62dde20f3c1b",
	"n65536/equal-frequency/B3/nozero=true":    "dd43a0d37317753eba7de2be1f4af7bf5a9ec874722eeaf02d595ec38e38518a",
	"n65536/equal-frequency/B8/nozero=false":   "e2fe325a37a2eb487291a637037c7edfb1e143cc5b71b93605cbcfdee6462ea1",
	"n65536/equal-frequency/B8/nozero=true":    "0abbb77411382215ec77665b2a76003cf5372d6c2314bb0ec50b278b5d4b2528",
	"n65536/equal-frequency/B12/nozero=false":  "57ca883d12944c769829189d6747381e859a18550440f04d147ae7a08ede0ca2",
	"n65536/equal-frequency/B12/nozero=true":   "50e52ecab3a5e63ae099dc1a2ee9ccbd368e3e4f3193c834fc28f3243fdd1140",
	"n524288/equal-width/B3/nozero=false":      "5e21f20334fff552276595599879ab1a5789b097753c01823f444162a3919c4b",
	"n524288/equal-width/B3/nozero=true":       "36715d5b55de08a0add0a8b9f42e22faff64841ebca98ed33bc3db4475322962",
	"n524288/equal-width/B8/nozero=false":      "b1148220b4e2128734f85d3a1b797bac88539a5b9a5d9c8747f1a430341bc5e2",
	"n524288/equal-width/B8/nozero=true":       "f30108514a28df7961edc02a54d6b5337e55533015fa5ccf8a2ba95d7ae34e2f",
	"n524288/equal-width/B12/nozero=false":     "764ec5091bb6b1aef5ef2a66bcd36d1c7df3c095644ca9e19a367d5f595de46a",
	"n524288/equal-width/B12/nozero=true":      "356685b0948b4a0e36e54395fb944259f7710179ae3fed669c73f25cacabe48c",
	"n524288/log-scale/B3/nozero=false":        "ec7cd880f80542b05cee99d63cd7d73e4b2b1549d275c6af7e79dffdc9ec70d2",
	"n524288/log-scale/B3/nozero=true":         "7fa39d2e3b891fae60b36caaca292407bdd77ea5086456641fb13e44769b8805",
	"n524288/log-scale/B8/nozero=false":        "86a884b0f7c2aa620fbc9a215807e97bc5cb04adcbbaac8e7558783140a868f2",
	"n524288/log-scale/B8/nozero=true":         "89d413d0876e2bd3efa431261507f5f39da94c3e18519ada13008aa8174d292c",
	"n524288/log-scale/B12/nozero=false":       "23f998a38bbb417592ff94f4d92f828b78ee35728a54d4edc4f816c3ac21d72c",
	"n524288/log-scale/B12/nozero=true":        "109b65542dfd77af21b0b5a66f225067bb0b02b2bbf11eec6506e37008affdb2",
	"n524288/clustering/B3/nozero=false":       "079099e7a8afb9a2e97009e2676890dd51f52139dacc2fcb2e95d10f1e0bf74b",
	"n524288/clustering/B3/nozero=true":        "6c6834dc77361fc0ae171940aa745fd98d51ba0882f6dfc19b05b08a8b5205f3",
	"n524288/clustering/B8/nozero=false":       "389dad376bd7ec5e98ed75b178a7031bd9e209f864a4b3a308a40a525cdb192c",
	"n524288/clustering/B8/nozero=true":        "51e0e8e472508c591f1feb845257342d0a8e64888ba70b6b9735e5f2665b8cee",
	"n524288/clustering/B12/nozero=false":      "4cb7de84fc43fedcc8539328910b9d714c708905a2669522b401d041db57d0ef",
	"n524288/clustering/B12/nozero=true":       "2e02a9d56f1467317fa16be36ecd99267fa5ec2cccb9966fd7ef262b80e93aed",
	"n524288/equal-frequency/B3/nozero=false":  "573ba2ef089fe58ee535f9757dd690adf08ab4a40808ac8368c9b63fcbe0c34d",
	"n524288/equal-frequency/B3/nozero=true":   "bdc45043e244aec23e46d7e0a4d34b2639c3b6009fc1e6ce0634aee6baed246b",
	"n524288/equal-frequency/B8/nozero=false":  "526a360f7626b3ad8d5a95bfb325699a3a5ab7ef28244691193772a3099cc0ac",
	"n524288/equal-frequency/B8/nozero=true":   "93a3721bc2746fac8bf37cb2a91dd3fabe6714b6038d4d1a5948c107c716bb7a",
	"n524288/equal-frequency/B12/nozero=false": "295c27710aa7c60b9a58b4f0d3fb6f7c265cd944028b2149a7b3a07edae9c331",
	"n524288/equal-frequency/B12/nozero=true":  "85c5e40308dc340b50890a4c598ba06cfe98fefc6df3dc5c9ac7da48ab28c3e4",
}

// TestEncodeGoldenBytes pins the encode's output bytes: for every
// strategy, three index widths, three sizes (one split chunk, one
// default chunk, two chunks on the ring) and the zero index on and
// off, the file the streaming encoder writes and the file
// MarshalDeltaV2 writes from the in-memory encode both hash to the
// pinned constant. A refactor of the driver, the fit or the packers
// that moves one byte fails here, whatever the tests of its own
// layer say. The race detector moves no byte and runs the 144 encodes
// ten times slower; TestPooledEncodeConcurrent is the race check.
func TestEncodeGoldenBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("bytes do not depend on the race detector")
	}
	for _, n := range []int{12960, 65536, 524288} {
		prev, cur := genPair(n, int64(n))
		for _, strategy := range []core.Strategy{core.EqualWidth, core.LogScale, core.Clustering, core.EqualFrequency} {
			for _, bits := range []int{3, 8, 12} {
				for _, noZero := range []bool{false, true} {
					name := fmt.Sprintf("n%d/%s/B%d/nozero=%t", n, strategy, bits, noZero)
					opt := core.Options{ErrorBound: 0.001, IndexBits: bits, Strategy: strategy, DisableZeroIndex: noZero}
					var streamed bytes.Buffer
					if _, err := EncodeDeltaV2(&streamed, "golden", 3, SliceSource(prev), SliceSource(cur), opt, Config{}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					enc, err := core.Encode(prev, cur, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					inmem, err := checkpoint.MarshalDeltaV2("golden", 3, enc, checkpoint.DefaultChunkPoints)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sum := sha256.Sum256(streamed.Bytes())
					got := hex.EncodeToString(sum[:])
					if want, ok := goldenEncodes[name]; !ok {
						t.Errorf("no golden for %q: %q,", name, got)
					} else if got != want {
						t.Errorf("%s: streamed file hashes to %s, want %s", name, got, want)
					}
					if !bytes.Equal(inmem, streamed.Bytes()) {
						t.Errorf("%s: in-memory file differs from the streamed one", name)
					}
				}
			}
		}
	}
}
