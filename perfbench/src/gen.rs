//! Seeded input generation: every request a workload sends, and every
//! client's key order and pauses, derive from the `--seed` argument and
//! nothing else, so a seed replays the same request list and the same
//! schedule.

use std::time::Duration;

use pte_serve::codec::{LayerSpec, NetworkSpec, PlatformId, SearchRequest, Strategy};

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a workload seed, so streams
    /// drawn in different orders never shift each other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// A request seed: 31 bits keeps it exact through any JSON reader.
    pub fn request_seed(&mut self) -> u64 {
        self.next_u64() >> 33
    }
}

/// One template layer: `(c_in, c_out, kernel, stride, h = w)`.
type LayerDims = (u64, u64, u64, u64, u64);

/// Small custom networks, the first layer being a fixed stem. Shared
/// shapes across templates keep a daemon's probe memo useful, as it is for
/// a real tenant mix.
const TEMPLATES: [&[LayerDims]; 6] = [
    &[(3, 16, 3, 1, 8), (16, 16, 3, 1, 8), (16, 32, 3, 1, 8)],
    &[(3, 16, 3, 1, 16), (16, 32, 3, 2, 16), (32, 32, 3, 1, 8), (32, 64, 3, 1, 8)],
    &[(3, 32, 3, 1, 8), (32, 32, 1, 1, 8), (32, 64, 3, 2, 8), (64, 64, 3, 1, 4)],
    &[
        (3, 8, 3, 1, 16),
        (8, 16, 3, 1, 16),
        (16, 16, 3, 2, 16),
        (16, 32, 3, 1, 8),
        (32, 32, 3, 1, 8),
    ],
    &[
        (3, 16, 3, 1, 16),
        (16, 16, 3, 1, 16),
        (16, 16, 3, 1, 16),
        (16, 32, 3, 2, 16),
        (32, 32, 1, 1, 8),
    ],
    &[(3, 32, 3, 1, 8), (32, 64, 3, 1, 8), (64, 64, 3, 2, 8), (64, 128, 1, 1, 4)],
];

/// Number of custom network templates.
const TEMPLATE_COUNT: usize = TEMPLATES.len();

/// Custom network from template `index` (modulo the template count).
fn custom_net(index: usize) -> NetworkSpec {
    let index = index % TEMPLATES.len();
    let layers = TEMPLATES[index];
    let convs = layers
        .iter()
        .enumerate()
        .map(|(i, &(c_in, c_out, kernel, stride, h))| LayerSpec {
            name: if i == 0 { "stem".into() } else { format!("block{i}") },
            c_in,
            c_out,
            kernel,
            stride,
            padding: kernel / 2,
            groups: 1,
            h,
            w: h,
            mutable: i > 0,
        })
        .collect();
    let classifier_in = layers.last().map_or(16, |l| l.1);
    NetworkSpec::Custom {
        name: format!("tenant-net-{index}"),
        dataset: "cifar10".into(),
        classifier_in,
        base_error: 7.0,
        convs,
    }
}

const PLATFORMS: [PlatformId; 4] =
    [PlatformId::Cpu, PlatformId::Gpu, PlatformId::Mcpu, PlatformId::Mgpu];

fn request(network: NetworkSpec, platform: PlatformId, strategy: Strategy) -> SearchRequest {
    SearchRequest { strategy, ..SearchRequest::quick(network, platform) }
}

/// One `cold_search` cell: a paper-scale search of a Figure 4 preset.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub request: SearchRequest,
}

/// The `cold_search` cells of pass `pass`: {resnet34, resnext29} ×
/// {intel-i7, arm-a57} × {unified, evolve} at `random_per_layer` 96 and 32
/// tuner trials, each with its own candidate-sampling seed drawn from the
/// workload seed and the pass, so a run averages over several seeds per
/// cell. densenet161 is left out: one cold densenet161 search alone takes
/// about a third of a pass on a 2-core host.
pub fn cold_cells(seed: u64, pass: u64) -> Vec<Cell> {
    let mut rng = Rng::new(seed, 1_000 + pass);
    let mut cells = Vec::new();
    for preset in ["resnet34-cifar10", "resnext29-2x64d"] {
        for platform in [PlatformId::Cpu, PlatformId::Mcpu] {
            for strategy in [Strategy::Unified, Strategy::Evolve] {
                let mut request = request(NetworkSpec::Preset(preset.into()), platform, strategy);
                request.random_per_layer = 96;
                request.trials = 32;
                request.seed = rng.request_seed();
                cells.push(Cell {
                    label: format!("{preset}/{}/{}", platform.as_str(), strategy.as_str()),
                    request,
                });
            }
        }
    }
    cells
}

/// Small search `index` of a key set: the unit of tenant traffic. The mix
/// is stratified — every 24 consecutive indices cover each template on
/// each platform once, half unified and half evolve — so runs with
/// different seeds differ only in candidate seeds, not in their mix.
fn small_request(rng: &mut Rng, index: usize) -> SearchRequest {
    let strategy = [Strategy::Unified, Strategy::Evolve][(index + index / TEMPLATE_COUNT) % 2];
    let platform = PLATFORMS[(index / TEMPLATE_COUNT) % PLATFORMS.len()];
    let mut request = request(custom_net(index), platform, strategy);
    request.random_per_layer = [4, 8][(index / 2) % 2];
    request.trials = 8;
    request.seed = rng.request_seed();
    request
}

/// Small custom keys at the front of each key set; presets follow.
pub const SMALL_KEYS: usize = 48;

/// The `warm_hits` key set of round `round` (54 keys, under the daemon's
/// default 256-entry plan cache): 48 small custom searches plus
/// quick-budget Figure 4 plans — resnet34 and resnext29 unified searches
/// and densenet161 baselines — so payloads range from about 1 KB to 40 KB.
/// Each round draws its own candidate seeds, so a run's set-up times
/// average over several draws rather than riding on one.
pub fn warm_keys(seed: u64, round: usize) -> Vec<SearchRequest> {
    let mut rng = Rng::new(seed, 2_000 + round as u64);
    let mut keys: Vec<SearchRequest> =
        (0..SMALL_KEYS).map(|i| small_request(&mut rng, i)).collect();
    for (preset, platform) in [
        ("resnet34-cifar10", PlatformId::Cpu),
        ("resnet34-cifar10", PlatformId::Mcpu),
        ("resnext29-2x64d", PlatformId::Gpu),
    ] {
        let mut r = request(NetworkSpec::Preset(preset.into()), platform, Strategy::Unified);
        r.seed = rng.request_seed();
        keys.push(r);
    }
    for platform in [PlatformId::Cpu, PlatformId::Gpu, PlatformId::Mgpu] {
        keys.push(request(
            NetworkSpec::Preset("densenet161-cifar10".into()),
            platform,
            Strategy::Baseline,
        ));
    }
    keys
}

/// A closed-loop client's mean pause between a reply and its next
/// request; each pause is drawn uniformly from `[0, 2 × THINK_TIME)`. See
/// `perfbench/README.md` for why `warm_hits` pauses at all.
pub const THINK_TIME: Duration = Duration::from_millis(2);

/// The schedule of closed-loop client `client` in round `round`: an
/// endless stream of (key index in `0..keys`, pause after the reply).
pub fn client_schedule(
    seed: u64,
    round: usize,
    client: usize,
    keys: usize,
) -> impl Iterator<Item = (usize, Duration)> {
    let mut rng = Rng::new(seed, 100 + 64 * round as u64 + client as u64);
    std::iter::repeat_with(move || (rng.below(keys), THINK_TIME.mul_f64(2.0 * rng.unit())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(requests: &[SearchRequest]) -> Vec<String> {
        requests.iter().map(|r| r.encode().expect("finite request")).collect()
    }

    #[test]
    fn same_seed_gives_same_requests() {
        for seed in [0, 7, 0xDEAD_BEEF] {
            let cells_a: Vec<SearchRequest> =
                cold_cells(seed, 2).into_iter().map(|c| c.request).collect();
            let cells_b: Vec<SearchRequest> =
                cold_cells(seed, 2).into_iter().map(|c| c.request).collect();
            assert_eq!(encoded(&cells_a), encoded(&cells_b));
            assert_eq!(encoded(&warm_keys(seed, 3)), encoded(&warm_keys(seed, 3)));
        }
        assert_ne!(encoded(&warm_keys(1, 0)), encoded(&warm_keys(2, 0)));
        assert_ne!(encoded(&warm_keys(1, 0)), encoded(&warm_keys(1, 1)));
    }

    #[test]
    fn same_seed_gives_same_schedule() {
        let schedule = |seed, round, client| -> Vec<(usize, Duration)> {
            client_schedule(seed, round, client, 30).take(500).collect()
        };
        let a = schedule(11, 0, 0);
        assert_eq!(a, schedule(11, 0, 0));
        assert_ne!(a, schedule(12, 0, 0));
        assert_ne!(a, schedule(11, 1, 0));
        assert_ne!(a, schedule(11, 0, 1));
        assert!(a.iter().all(|&(key, pause)| key < 30 && pause < 2 * THINK_TIME));
        // The mean pause is about THINK_TIME.
        let mean = a.iter().map(|(_, pause)| pause.as_secs_f64()).sum::<f64>() / a.len() as f64;
        assert!((mean / THINK_TIME.as_secs_f64() - 1.0).abs() < 0.1, "mean pause {mean}");
    }

    #[test]
    fn key_set_is_distinct_valid_and_fits_the_cache() {
        let keys = warm_keys(3, 0);
        let mut canon = encoded(&keys);
        canon.sort();
        canon.dedup();
        assert_eq!(canon.len(), keys.len());
        assert_eq!(keys.len(), SMALL_KEYS + 6);
        assert!(keys.len() < 256);
        for key in &keys {
            key.validate().expect("valid request");
            key.network.resolve().expect("resolvable network");
        }
    }
}
