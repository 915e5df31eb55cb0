//! Communicator splitting and second-tier collectives: six ranks divide
//! into two teams (`comm_split` by color), each team reduces its own
//! partial result, then the team leaders exchange results and broadcast
//! the final answer cluster-wide.
//!
//! ```sh
//! cargo run --release --example work_teams
//! ```

use fm_repro::fm_mpi::{MpiCluster, ReduceOp, Tag};

const RANKS: usize = 6;

fn main() {
    let comms = MpiCluster::new(RANKS);
    let handles: Vec<_> = comms
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                let me = c.rank();
                // Teams: evens compute a sum of squares, odds a sum of cubes.
                let color = (me % 2) as u32;
                let team = c.split(color, 0);

                let x = (me as f64) + 1.0;
                let mine = if color == 0 { x * x } else { x * x * x };
                let team_total = team
                    .allreduce(&mut c, &[mine], ReduceOp::Sum)
                    .expect("aligned contributions")[0];

                // Team leaders (group rank 0) swap totals.
                let other_total = if team.rank() == 0 {
                    let peer = if me == team.global(0) && color == 0 {
                        1
                    } else {
                        0
                    };
                    let got = c.sendrecv(peer, peer, Tag(40), &team_total.to_le_bytes());
                    f64::from_le_bytes(got.try_into().expect("8B"))
                } else {
                    0.0
                };
                // Leaders broadcast the other team's total within their team.
                let other_total = {
                    let bytes = team.bcast(&mut c, 0, &other_total.to_le_bytes());
                    f64::from_le_bytes(bytes.try_into().expect("8B"))
                };

                c.barrier();
                (me, color, team_total, other_total, c.reordered_messages())
            })
        })
        .collect();

    let mut rows: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank"))
        .collect();
    rows.sort_by_key(|r| r.0);

    // Ground truth: evens 1,3,5 -> squares of 1,3,5? No: x = rank+1, so
    // evens have x in {1,3,5} and odds x in {2,4,6}.
    let squares: f64 = [1.0f64, 3.0, 5.0].iter().map(|x| x * x).sum();
    let cubes: f64 = [2.0f64, 4.0, 6.0].iter().map(|x| x * x * x).sum();

    println!("two teams over {RANKS} ranks (evens: sum of squares, odds: sum of cubes)\n");
    for &(me, color, team_total, other_total, reordered) in &rows {
        let (expect_mine, expect_other) = if color == 0 {
            (squares, cubes)
        } else {
            (cubes, squares)
        };
        assert_eq!(team_total, expect_mine, "rank {me} team total");
        assert_eq!(other_total, expect_other, "rank {me} other-team total");
        println!(
            "rank {me} (team {color}): team total {team_total:>6.1}, other team {other_total:>6.1}, reordered msgs {reordered}"
        );
    }
    println!("\nteam totals verified: squares = {squares}, cubes = {cubes}");
}
