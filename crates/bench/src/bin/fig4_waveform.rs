//! Regenerates **Figure 4** — "Interaction with BFM–H/W Peripherals":
//! drives the driver-model handshake (port writes, multiplexed
//! external-bus transactions) and prints the probed signal waveforms as
//! both an ASCII listing and an IEEE-1364 VCD dump.

use std::rc::Rc;

use rtk_analysis::WaveProbe;
use rtk_bfm::Bfm;
use rtk_core::KernelConfig;
use sysc::SimTime;

fn main() {
    let (mut rtos, _bfm) = Bfm::boot(KernelConfig::paper(), |sys, bfm| {
        let ports = bfm.ports.clone();
        let driver = sys
            .tk_cre_tsk("driver", 10, move |sys, _| {
                // The Fig. 4 handshake: a burst of port and external-bus
                // accesses with waits between them.
                ports.write(sys, 1, 0x0F);
                sys.exec(SimTime::from_us(50));
                ports.ext_bus_write(sys, 0x20, 0xAB);
                sys.exec(SimTime::from_us(30));
                let _ = ports.ext_bus_read(sys, 0x21, 0x5C);
                sys.exec(SimTime::from_us(20));
                ports.write(sys, 1, 0xF0);
                ports.write(sys, 3, 0x42);
            })
            .unwrap();
        sys.tk_sta_tsk(driver, 0).unwrap();
    });

    let probe = Rc::new(WaveProbe::new());
    rtos.set_sim_tracer(probe.clone());
    rtos.run_until(SimTime::from_ms(5));

    println!("{} signal changes probed", probe.len());
    println!();
    println!(
        "{}",
        probe.render_ascii(SimTime::ZERO, SimTime::from_ms(2), 100)
    );
    println!("--- VCD dump (import into any waveform viewer) ---");
    println!("{}", probe.to_vcd());
}
