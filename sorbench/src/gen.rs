//! Seeded input generation. The program under test only ever sees what
//! these functions build from `--seed`: places, trails, preference
//! profiles, the Zipf request stream and the held-back upload split.

use sor_core::ranking::{Preference, PreferredValue, Weight};
use sor_core::UserPreferences;
use sor_sensors::environment::place::{PlaceEnvironment, PlaceSpec};
use sor_sensors::environment::trail::{Segment, TrailEnvironment, TrailSpec};
use sor_sensors::environment::Level;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a purpose `tag`, so adding a new
    /// consumer never shifts the draws of an existing one.
    pub fn new(seed: u64, tag: u64) -> Self {
        Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `n` coffee shops laid out on a 1.1 km grid (far wider than the
/// 300 m admission radius), each with its own seeded indoor climate.
pub fn coffee_shops(seed: u64, n: usize) -> Vec<PlaceEnvironment> {
    let mut rng = Rng::new(seed, 1);
    (0..n)
        .map(|i| {
            let spec = PlaceSpec {
                name: format!("shop-{i:03}"),
                latitude: 43.0 + (i / 16) as f64 * 0.01,
                longitude: -76.2 + (i % 16) as f64 * 0.01,
                temperature_f: Level::drifting(rng.range(64.0, 76.0), rng.range(0.3, 1.0), 0.4),
                humidity_pct: Level::steady(rng.range(30.0, 45.0), 1.0),
                light_lux: Level::drifting(rng.range(150.0, 1200.0), rng.range(10.0, 100.0), 20.0),
                noise_level: Level::drifting(rng.range(0.05, 0.45), 0.03, 0.02),
                wifi_dbm: Level::steady(rng.range(-72.0, -50.0), 1.5),
                pressure_hpa: Level::steady(1013.0, 0.3),
            };
            PlaceEnvironment::new(spec, rng.next_u64())
        })
        .collect()
}

/// `n` hiking trails with seeded geometry: segment lengths, switchback
/// turns and grades, surface roughness and weather.
pub fn trails(seed: u64, n: usize) -> Vec<TrailEnvironment> {
    let mut rng = Rng::new(seed, 2);
    (0..n)
        .map(|i| {
            let turn = rng.range(8.0, 70.0);
            let steep = rng.range(0.0, 0.14);
            let segments = (0..20 + rng.below(11))
                .map(|k| Segment {
                    length_m: rng.range(50.0, 110.0),
                    turn_deg: if k % 2 == 0 { turn } else { -0.8 * turn },
                    grade: if k % 3 == 2 { -steep } else { steep * rng.range(0.2, 1.0) },
                })
                .collect();
            let spec = TrailSpec {
                name: format!("trail-{i:03}"),
                latitude: 42.9 + (i / 8) as f64 * 0.1,
                longitude: -76.3 + (i % 8) as f64 * 0.1,
                altitude_m: rng.range(100.0, 300.0),
                segments,
                walk_speed: rng.range(0.9, 1.4),
                roughness: rng.range(0.1, 0.7),
                temperature_f: Level::drifting(rng.range(40.0, 52.0), 1.0, 0.4),
                humidity_pct: Level::drifting(rng.range(35.0, 58.0), 2.0, 1.0),
            };
            TrailEnvironment::new(spec, rng.next_u64())
        })
        .collect()
}

/// `n` preference profiles over the four coffee-shop features
/// (temperature, brightness, noise, WiFi). Every profile weighs at
/// least one feature, so each is a meaningful ranking request.
pub fn coffee_profiles(seed: u64, n: usize) -> Vec<UserPreferences> {
    let mut rng = Rng::new(seed, 3);
    let targets = [(64.0, 76.0), (150.0, 1200.0), (0.05, 0.45), (-72.0, -50.0)];
    (0..n)
        .map(|i| {
            let mut prefs: Vec<Preference> = targets
                .iter()
                .map(|&(lo, hi)| {
                    let preferred = match rng.below(3) {
                        0 => PreferredValue::Value(rng.range(lo, hi)),
                        1 => PreferredValue::Largest,
                        _ => PreferredValue::Smallest,
                    };
                    Preference::new(preferred, Weight::level(rng.below(6) as u8))
                })
                .collect();
            if prefs.iter().all(|p| p.weight.is_zero()) {
                let n = prefs.len();
                prefs[i % n].weight = Weight::level(3);
            }
            UserPreferences::new(format!("profile-{i}"), prefs)
        })
        .collect()
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution `P(k) ∝ (k + 1)^-s` for `k` in `0..n`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The profile index of each of `requests` rank requests, drawn
/// Zipf(1.1) over `profiles` profiles.
pub fn request_stream(seed: u64, profiles: usize, requests: usize) -> Vec<usize> {
    let zipf = Zipf::new(profiles, 1.1);
    let mut rng = Rng::new(seed, 4);
    (0..requests).map(|_| zipf.sample(&mut rng)).collect()
}

/// Whether the `seq`-th upload of `task_id` is held back from the
/// set-up collection. Each task alternates, starting on a seeded
/// parity, so exactly every other upload is held and every task with
/// two or more uploads delivers at least one before the timed region.
pub fn held_back(seed: u64, task_id: u64, seq: u64) -> bool {
    let parity = Rng::new(seed ^ task_id.wrapping_mul(0xA24B_AED4_963E_E407), 5).next_u64() & 1;
    (seq + parity) % 2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_profile_stream_is_deterministic_per_seed() {
        let a = request_stream(7, 512, 2000);
        assert_eq!(a, request_stream(7, 512, 2000));
        assert_ne!(a, request_stream(8, 512, 2000));
        assert!(a.iter().all(|&k| k < 512));
        // Zipf(1.1) over 512: the top profile takes 19.1% of requests
        // (383 of 2000 expected; the binomial sd is 18), far more than
        // the uniform 0.2%.
        let top = a.iter().filter(|&&k| k == 0).count();
        assert!((300..470).contains(&top), "rank-0 draws {top}");
    }

    #[test]
    fn held_back_split_is_deterministic_and_alternates() {
        for task in 0..50u64 {
            let split: Vec<bool> = (0..10).map(|s| held_back(3, task, s)).collect();
            assert_eq!(split, (0..10).map(|s| held_back(3, task, s)).collect::<Vec<_>>());
            assert_eq!(split.iter().filter(|&&h| h).count(), 5, "task {task}: {split:?}");
            assert!(split.windows(2).all(|w| w[0] != w[1]), "task {task}: {split:?}");
        }
        let parities: Vec<bool> = (0..64).map(|t| held_back(3, t, 0)).collect();
        assert!(parities.iter().any(|&h| h) && parities.iter().any(|&h| !h));
        assert_ne!(parities, (0..64).map(|t| held_back(4, t, 0)).collect::<Vec<_>>());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let names =
            |seed| coffee_shops(seed, 5).iter().map(|e| e.spec().clone()).collect::<Vec<_>>();
        assert_eq!(names(1), names(1));
        assert_ne!(names(1), names(2));
        let trail = |seed| trails(seed, 3).iter().map(|e| e.spec().clone()).collect::<Vec<_>>();
        assert_eq!(trail(1), trail(1));
        assert_eq!(coffee_profiles(9, 16), coffee_profiles(9, 16));
        assert!(coffee_profiles(9, 512).iter().all(|p| p.weights().iter().any(|&w| w > 0.0)));
    }
}
