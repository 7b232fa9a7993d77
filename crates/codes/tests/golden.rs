//! Golden values for every code family: the share bytes a fixed input
//! encodes to, the analytic cost, and the `locate` answers. Round-trip tests
//! cannot see a change that permutes columns or moves a cell the same way
//! on both sides; these constants can. A failure here means the on-node
//! share layout changed, which strands every share already written.

use rain_codes::{build_code, CodeKind, CodeSpec, ShareSet};

/// Input blocks per code: five bytes per data cell.
const BLOCKS: usize = 5;

/// Offsets probed by `locate`: the first two bytes, the thirds and the
/// middle, the last byte, and one past the end.
fn probe_offsets(len: usize) -> [usize; 7] {
    [0, 1, len / 3, len / 2, 2 * len / 3, len - 1, len]
}

/// A fixed input that does not depend on any RNG crate.
fn input(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8 ^ (i as u8))
        .collect()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

type Location = Option<(usize, usize, usize)>;

struct Golden {
    spec: CodeSpec,
    /// FNV-1a of each share of the `BLOCKS`-unit input.
    shares: &'static [u64],
    /// `cost(4096)`: encode and decode XOR bytes, update complexity,
    /// storage overhead.
    cost: (u64, u64, f64, f64),
    /// `locate` at each of [`probe_offsets`].
    locate: [Location; 7],
}

fn golden(
    kind: CodeKind,
    n: usize,
    k: usize,
    shares: &'static [u64],
    cost: (u64, u64, f64, f64),
    locate: [Location; 7],
) -> Golden {
    Golden {
        spec: CodeSpec::new(kind, n, k),
        shares,
        cost,
        locate,
    }
}

fn goldens() -> Vec<Golden> {
    use CodeKind::*;
    vec![
        golden(
            BCode,
            6,
            4,
            &[
                0x8da96f383f66435e,
                0x419722b907fa4007,
                0xd91735882a4b2f92,
                0x2f7d1fc81518634c,
                0xb022140ce89d3beb,
                0x4d733c6201dd1102,
            ],
            (6138, 8184, 2.0, 1.5),
            [
                Some((0, 0, 5)),
                Some((0, 1, 4)),
                Some((4, 0, 5)),
                Some((0, 5, 5)),
                Some((2, 5, 5)),
                Some((5, 9, 1)),
                None,
            ],
        ),
        golden(
            BCode,
            10,
            8,
            &[
                0x87fabecf39d243a2,
                0xa4cd9ed3e47f558c,
                0x6c397f65ea6b3ec2,
                0x85eef6e6e10d7aba,
                0x02e314563286b9c4,
                0xc95ab0a6a23a0136,
                0x72e4d34061464e1d,
                0xc42fc0e329fe40fb,
                0xed43f5e58ae65c17,
                0x801e19ef316669b1,
            ],
            (7140, 8160, 2.0, 1.25),
            [
                Some((0, 0, 5)),
                Some((0, 1, 4)),
                Some((3, 6, 4)),
                Some((0, 10, 5)),
                Some((6, 13, 2)),
                Some((9, 19, 1)),
                None,
            ],
        ),
        golden(
            XCode,
            5,
            3,
            &[
                0x7cc5b7c8cd676b83,
                0xeaad7a80908f4672,
                0x5446e41acdbd1e71,
                0x133f21b6faa5c6f3,
                0x74f91cac63e3e650,
            ],
            (5460, 8190, 2.0, 1.6666666666666667),
            [
                Some((0, 0, 5)),
                Some((0, 1, 4)),
                Some((0, 5, 5)),
                Some((2, 7, 3)),
                Some((0, 10, 5)),
                Some((4, 14, 1)),
                None,
            ],
        ),
        golden(
            XCode,
            7,
            5,
            &[
                0x1ecf744fbb45eb64,
                0x1630b20e60dc3cca,
                0x5858318677a24072,
                0x4c020d8b4cdfb8bb,
                0x650439699f2e0727,
                0x2e849d51d302dfd8,
                0xcaf527d3015d86ed,
            ],
            (6552, 8190, 2.0, 1.4),
            [
                Some((0, 0, 5)),
                Some((0, 1, 4)),
                Some((4, 8, 2)),
                Some((3, 12, 3)),
                Some((2, 16, 4)),
                Some((6, 24, 1)),
                None,
            ],
        ),
        golden(
            EvenOdd,
            7,
            5,
            &[
                0x691a4b6366e60531,
                0x13815cf3f6aaeec3,
                0xc232ab151fb5fe2d,
                0x44e3ba32ff4f9d6d,
                0xb5e42f4c3728097b,
                0xc21925ce12d1b331,
                0x834276fdd13a6e55,
            ],
            (8976, 10608, 2.6, 1.4),
            [
                Some((0, 0, 5)),
                Some((0, 1, 4)),
                Some((1, 13, 2)),
                Some((2, 10, 5)),
                Some((3, 6, 4)),
                Some((4, 19, 1)),
                None,
            ],
        ),
        golden(
            SingleParity,
            5,
            4,
            &[
                0x9fef62acc8ffed5f,
                0xd4832f77c67108d5,
                0xeba566d41bef1408,
                0x65f8cd9764a3321c,
                0x2093ddb49668b931,
            ],
            (3072, 4096, 1.0, 1.25),
            [
                Some((0, 0, 5)),
                Some((0, 1, 4)),
                Some((1, 1, 4)),
                Some((2, 0, 5)),
                Some((2, 3, 2)),
                Some((3, 4, 1)),
                None,
            ],
        ),
        golden(
            ReedSolomon,
            6,
            4,
            &[
                0x9fef62acc8ffed5f,
                0xd4832f77c67108d5,
                0xeba566d41bef1408,
                0x65f8cd9764a3321c,
                0x2be1bf8909f48e3b,
                0x971b157f25a8b575,
            ],
            (32768, 65536, 2.0, 1.5),
            [
                Some((0, 0, 5)),
                Some((0, 1, 4)),
                Some((1, 1, 4)),
                Some((2, 0, 5)),
                Some((2, 3, 2)),
                Some((3, 4, 1)),
                None,
            ],
        ),
        golden(
            Mirroring,
            3,
            1,
            &[0x9fef62acc8ffed5f, 0x9fef62acc8ffed5f, 0x9fef62acc8ffed5f],
            (8192, 0, 2.0, 3.0),
            [
                Some((0, 0, 5)),
                Some((0, 1, 4)),
                Some((0, 1, 4)),
                Some((0, 2, 3)),
                Some((0, 3, 2)),
                Some((0, 4, 1)),
                None,
            ],
        ),
    ]
}

#[test]
fn every_family_keeps_its_share_bytes_cost_and_locations() {
    for g in goldens() {
        let spec = g.spec;
        let code = build_code(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(code.kind(), spec.kind, "{spec}: kind");
        assert_eq!(code.spec(), spec, "{spec}: spec");

        let len = code.data_len_unit() * BLOCKS;
        let mut set = ShareSet::new();
        code.encode_into(&input(len), &mut set).expect("encode");
        let shares: Vec<u64> = set.iter().map(fnv1a).collect();
        assert_eq!(shares, g.shares, "{spec}: share bytes");

        let c = code.cost(4096);
        let cost = (
            c.encode_xor_bytes,
            c.decode_xor_bytes,
            c.update_parities_per_data_cell,
            c.storage_overhead,
        );
        assert_eq!(cost, g.cost, "{spec}: cost(4096)");

        let locate = probe_offsets(len).map(|o| code.locate(len, o));
        assert_eq!(locate, g.locate, "{spec}: locate");
    }
}
