//! Property-based tests for the storage primitives: decimal arithmetic,
//! calendar conversion, dictionary interning and compacting gathers.

use proptest::prelude::*;
use wimpi_storage::{Date32, Decimal64, DictBuilder};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decimal display/parse round trip at any scale 0–6.
    #[test]
    fn decimal_display_parse_round_trip(mantissa in -1_000_000_000i64..1_000_000_000,
                                        scale in 0u8..=6) {
        let d = Decimal64::new(mantissa, scale);
        let parsed = Decimal64::from_str_scale(&d.to_string(), scale).expect("parses");
        prop_assert_eq!(parsed, d);
    }

    /// Addition is commutative and subtraction inverts it, across scales.
    #[test]
    fn decimal_add_sub_inverse(a in -1_000_000i64..1_000_000, sa in 0u8..=4,
                               b in -1_000_000i64..1_000_000, sb in 0u8..=4) {
        let x = Decimal64::new(a, sa);
        let y = Decimal64::new(b, sb);
        let s1 = x.add(y).expect("no overflow");
        let s2 = y.add(x).expect("no overflow");
        prop_assert_eq!(s1, s2);
        let back = s1.sub(y).expect("no overflow");
        prop_assert_eq!(back.cmp(&x), std::cmp::Ordering::Equal);
    }

    /// Multiplication against the f64 oracle stays within rounding distance.
    #[test]
    fn decimal_mul_close_to_float(a in -100_000i64..100_000, b in -10_000i64..10_000) {
        let x = Decimal64::new(a, 2);
        let y = Decimal64::new(b, 2);
        let exact = x.mul(y, 4).expect("no overflow");
        let float = x.to_f64() * y.to_f64();
        prop_assert!((exact.to_f64() - float).abs() < 1e-4 + float.abs() * 1e-12);
    }

    /// Ordering agrees with the f64 ordering whenever floats can represent
    /// the values exactly enough.
    #[test]
    fn decimal_ordering_matches_float(a in -1_000_000i64..1_000_000, sa in 0u8..=4,
                                      b in -1_000_000i64..1_000_000, sb in 0u8..=4) {
        let x = Decimal64::new(a, sa);
        let y = Decimal64::new(b, sb);
        if (x.to_f64() - y.to_f64()).abs() > 1e-6 {
            prop_assert_eq!(x < y, x.to_f64() < y.to_f64());
        }
    }

    /// Civil-calendar round trip over ±300 years around the epoch.
    #[test]
    fn date_round_trip(days in -110_000i32..110_000) {
        let d = Date32(days);
        let (y, m, dd) = d.to_ymd();
        prop_assert_eq!(Date32::from_ymd(y, m, dd), d);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&dd));
    }

    /// Month arithmetic composes: +a then +b == +(a+b) when no day clamping
    /// can occur (day ≤ 28).
    #[test]
    fn add_months_composes(base_days in 0i32..20_000, a in -24i32..24, b in -24i32..24) {
        let d = Date32(base_days);
        let (y, m, _) = d.to_ymd();
        let safe = Date32::from_ymd(y, m, 15); // mid-month: no clamping
        prop_assert_eq!(safe.add_months(a).add_months(b), safe.add_months(a + b));
    }

    /// Dictionary interning: decode(encode(x)) == x and cardinality equals
    /// the number of distinct inputs.
    #[test]
    fn dict_round_trip(words in prop::collection::vec("[a-z]{0,6}", 0..200)) {
        let mut b = DictBuilder::new();
        for w in &words {
            b.push(w);
        }
        let d = b.finish();
        prop_assert_eq!(d.len(), words.len());
        for (i, w) in words.iter().enumerate() {
            prop_assert_eq!(d.get(i), w.as_str());
        }
        let distinct: std::collections::HashSet<&String> = words.iter().collect();
        prop_assert_eq!(d.cardinality(), distinct.len());
    }

    /// take() then take() composes like index composition.
    #[test]
    fn dict_take_composes(words in prop::collection::vec("[a-z]{1,4}", 1..60),
                          sel1 in prop::collection::vec(any::<prop::sample::Index>(), 1..40),
                          sel2 in prop::collection::vec(any::<prop::sample::Index>(), 1..40)) {
        let d: wimpi_storage::DictColumn = words.iter().map(String::as_str).collect();
        let s1: Vec<u32> = sel1.iter().map(|i| i.index(words.len()) as u32).collect();
        let t1 = d.take(&s1);
        let s2: Vec<u32> = sel2.iter().map(|i| i.index(s1.len()) as u32).collect();
        let t2 = t1.take(&s2);
        for (out, &mid) in s2.iter().enumerate() {
            prop_assert_eq!(t2.get(out), d.get(s1[mid as usize] as usize));
        }
    }

    /// `take_compact` equals interning the decoded rows (unmatched rows as
    /// "") through a builder, codes and dictionary both — including where
    /// "" lands when the source dictionary holds a real "" too.
    #[test]
    fn dict_take_compact_equals_interning(
        words in prop::collection::vec("[a-c]{0,2}", 1..60),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<bool>()), 0..80),
    ) {
        const NONE: u32 = u32::MAX;
        let d: wimpi_storage::DictColumn = words.iter().map(String::as_str).collect();
        let sel: Vec<u32> = picks
            .iter()
            .map(|(i, unmatched)| if *unmatched { NONE } else { i.index(words.len()) as u32 })
            .collect();
        let mut b = DictBuilder::new();
        for &i in &sel {
            b.push(if i == NONE { "" } else { d.get(i as usize) });
        }
        let want = b.finish();
        let got = d.take_compact(&sel, NONE);
        prop_assert_eq!(got.codes(), want.codes());
        prop_assert_eq!(got.values(), want.values());
    }
}
