type t =
  | Tree
  | Vm

let to_string = function Tree -> "tree" | Vm -> "vm"

let run ?max_steps ?hooks ?cache ~engine ~program ~env ~sched () =
  match engine with
  | Tree -> Interp.run ?max_steps ?hooks ~program ~env ~sched ()
  | Vm -> Vm.execute ?max_steps ?hooks ?cache ~program ~env ~sched ()

let reconstruct ?hooks ?cache ~engine ~program ~bits ~schedule ~total_decisions ~total_steps () =
  match engine with
  | Tree -> Interp.reconstruct ?hooks ~program ~bits ~schedule ~total_decisions ~total_steps ()
  | Vm -> Vm.reconstruct ?hooks ?cache ~program ~bits ~schedule ~total_decisions ~total_steps ()
