//! `reset` semantics across threads, in a process of its own: a reset
//! zeroes every metric for every reader, yet never writes a slab that
//! another thread owns.

use mcdnn_obs::metrics;

#[test]
fn reset_zeroes_other_threads_without_touching_them() {
    mcdnn_obs::set_enabled(true);
    let (go, wait) = std::sync::mpsc::channel::<()>();
    let (done, finished) = std::sync::mpsc::channel::<u64>();
    let worker = std::thread::spawn(move || {
        metrics::JOINT_ALLOCATIONS.add(3);
        done.send(0).unwrap();
        // Parked across the reset; records again afterwards.
        wait.recv().unwrap();
        metrics::JOINT_ALLOCATIONS.add(2);
        done.send(mcdnn_obs::thread_counter_value("joint.allocations"))
            .unwrap();
        wait.recv().unwrap();
    });
    finished.recv().unwrap();
    assert_eq!(mcdnn_obs::counter_value("joint.allocations"), 3);
    metrics::JOINT_ROUNDS.add(4);

    mcdnn_obs::reset();
    assert_eq!(mcdnn_obs::counter_value("joint.allocations"), 0);
    assert_eq!(mcdnn_obs::thread_counter_value("joint.rounds"), 0);
    assert_eq!(mcdnn_obs::snapshot().counter("joint.rounds"), Some(0));

    go.send(()).unwrap();
    assert_eq!(finished.recv().unwrap(), 2, "owner zeroed its slab first");
    assert_eq!(mcdnn_obs::counter_value("joint.allocations"), 2);
    go.send(()).unwrap();
    worker.join().unwrap();
    assert_eq!(
        mcdnn_obs::counter_value("joint.allocations"),
        2,
        "an exited thread's counts survive in the retired total"
    );
}
